import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussform import calculus as calc
from gaussform import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZooCommands:
    def test_list_families(self, capsys):
        code, out, _ = run_cli(capsys, "zoo", "list")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        keys = [f["key"] for f in report["families"]]
        assert "ruled-6.2-2" in keys and "translational-6.4" in keys
        assert keys == sorted(keys)

    def test_sample_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        code, out, _ = run_cli(capsys, "zoo", "sample", "ruled-6.2-2",
                               "--param", "c=1", "--u", "0.5:2:16",
                               "--v", "0.1:1.5:16", "--out", str(out_file))
        assert code == 0
        assert json.loads(out)["rows"] == 256
        lines = out_file.read_text().splitlines()
        assert lines[0] == "i,j,u,v,x1,x2,x3"
        assert len(lines) == 257

    def test_unknown_family_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "zoo", "sample", "nosuchfamily",
                               "--u", "0:1:2", "--v", "0:1:2")
        assert code == 2
        assert "UnknownFamily" in err

    def test_bad_grid_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "zoo", "sample", "horosphere",
                             "--u", "0:1", "--v", "0:1:2")
        assert code == 2


class TestCheckCommands:
    def test_forms_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "forms", "horosphere")
        assert code == 0
        report = json.loads(out)
        assert all(report["summary"]["pass"].values())

    def test_forms_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "check", "forms", "translational-6.4",
                               "--at", "0.3,-0.2")
        assert code == 0
        assert len(json.loads(out)["points"]) == 1

    def test_forms_free_graph(self, capsys):
        code, out, _ = run_cli(capsys, "check", "forms", "--graph", "1+u^2/8",
                               "--space", "h3",
                               "--grid=-0.5:0.5:5x-0.5:0.5:5")
        assert code == 0

    def test_conformal_expected_classes(self, capsys):
        for family, expect in [("ruled-6.7", 0), ("vertical-plane", 0),
                               ("control-bowl", 0)]:
            code, out, _ = run_cli(capsys, "check", "conformal", family)
            assert code == expect
        report = json.loads(out)
        assert report["expected_classification"] == "not_conformal"

    def test_points_outside_domain_fail(self, capsys):
        code, out, _ = run_cli(capsys, "check", "forms", "horosphere",
                               "--at", "10,10")
        assert code == 1
        assert json.loads(out)["points"][0]["status"] == "OutsideDomain"

    def test_conformal_vanishing_fourth_form(self, capsys):
        # psi = v^3 makes IV vanish up to rounding; that noise must not be
        # read as a direction of IV.
        code, out, _ = run_cli(capsys, "check", "conformal", "flaherty-plus",
                               "--param", "psi=v^3")
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 64
        assert all(p["classification"] == "conformal" for p in points)


class TestFailureTelemetry:
    @pytest.mark.parametrize("argv,kind", [
        (("check", "forms", "horosphere", "--at", "10,10"), "OutsideDomain"),
        (("check", "conformal", "horosphere", "--at", "10,10"), "OutsideDomain"),
        (("dualize", "vertical-plane", "--grid", "0.1:0.9:2x0.5:1:2"),
         "EquatorialNormal"),
        (("pde", "residual", "--eq", "6.1", "--graph", "sqrt(u)",
          "--grid=-1:1:2x0:1:2"), "DomainError"),
    ])
    def test_failed_points_explain_themselves(self, capsys, argv, kind):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        report = json.loads(out)
        failed = [p for p in report["points"] if p["status"] != "ok"]
        assert failed and all(p["status"] == kind and p["error"] for p in failed)
        assert report["summary"]["failures_by_kind"] == {kind: len(failed)}

    def test_zoo_sample_failures(self, capsys):
        code, out, _ = run_cli(capsys, "zoo", "sample", "translational-7.3-2-plus",
                               "--u", "0:2:3", "--v", "1.5:2:2")
        assert code == 1
        report = json.loads(out)
        assert report["failed_samples"] == 4
        assert report["failures_by_kind"] == {"DomainError": 4}
        assert [(p["i"], p["j"]) for p in report["failed_points"]] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(p["error"] for p in report["failed_points"])

    @pytest.mark.parametrize("argv", [
        ("check", "forms", "horosphere"),
        ("check", "conformal", "ruled-6.7"),
        ("dualize", "ruled-6.2-2", "--grid", "0.3:0.8:2x0.3:1.2:2"),
        ("zoo", "sample", "horosphere", "--u", "0:1:2", "--v", "0:1:2"),
    ])
    def test_passing_reports_carry_no_failure_fields(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert "error" not in out and "failures_by_kind" not in out
        assert "failed_points" not in out


class TestPdeCommand:
    def test_corollary_solution(self, capsys):
        code, out, _ = run_cli(capsys, "pde", "residual", "--eq", "6.2",
                               "--graph", "u*v/sqrt(1+v^2)",
                               "--grid", "0.1:0.9:9x0.1:0.9:9")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["max_abs_residual"] <= 1e-10
        assert report["points"][0]["regime"] == "space_like"

    def test_non_solution_fails(self, capsys):
        code, out, _ = run_cli(capsys, "pde", "residual", "--eq", "6.1",
                               "--graph", "1+u^2+v^2",
                               "--grid=-0.2:0.2:5x-0.2:0.2:5")
        assert code == 1


class TestDualize:
    def test_fit_isometry(self, capsys):
        code, out, _ = run_cli(capsys, "dualize", "translational-6.6",
                               "--fit-isometry")
        assert code == 0
        fit = json.loads(out)["summary"]["isometry_fit"]
        assert fit["target_family"] == "translational-6.4"
        assert abs(abs(fit["theta"]) - math.pi / 2) < 1e-12
        assert fit["max_gap"] <= 1e-6

    def test_fit_isometry_builds_the_chart_once(self, capsys, monkeypatch):
        from gaussform import zoo

        scans = []
        scan = zoo._scan_domain
        monkeypatch.setattr(zoo, "_scan_domain", lambda *a: scans.append(a) or scan(*a))
        zoo._build.cache_clear()
        code, _, _ = run_cli(capsys, "dualize", "translational-6.6", "--fit-isometry")
        assert code == 0
        assert len(scans) == 1

    def test_plain_dualize(self, capsys):
        code, out, _ = run_cli(capsys, "dualize", "ruled-6.2-2",
                               "--grid", "0.3:0.8:4x0.3:1.2:4")
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["max_transfer_residual"] <= 1e-8

    def test_transfer_gate_relative_near_branch_locus(self, capsys):
        # The worst point sits next to the branch locus, where the dual
        # curvature is large; its residual is reported absolute but gated
        # relative to |dual K|.
        code, out, _ = run_cli(capsys, "dualize", "ruled-6.7")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["max_transfer_residual"] > cli.TOL_TRANSFER
        assert summary["pass"]["transfer_law"]

    @pytest.mark.parametrize("key", ["vertical-plane", "cylinder-7.4-2"])
    def test_equatorial_normal_fails_every_point(self, capsys, key):
        code, out, _ = run_cli(capsys, "dualize", key)
        assert code == 1
        points = json.loads(out)["points"]
        assert points and all(p["status"] == "EquatorialNormal" for p in points)


class TestWeierstrassBuild:
    def test_radial_problem(self, capsys, tmp_path):
        out_file = tmp_path / "surface.csv"
        code, out, _ = run_cli(capsys, "weierstrass", "build",
                               "--g", "builtin:z", "--case", "1",
                               "--domain", "1.5:2.5:0.1:0.9", "--grid", "17",
                               "--boundary", "builtin:radial",
                               "--out", str(out_file))
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["discrete_residual"] <= 1e-10
        assert summary["identity_defect"] <= 1e-10
        assert summary["kept_samples"] == 225
        assert out_file.exists()

    def test_expression_g_equivalent_to_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "weierstrass", "build",
                               "--g", "u + i*v", "--case", "1",
                               "--domain", "1.5:2.5:0.1:0.9", "--grid", "9",
                               "--boundary", "builtin:radial")
        # expression g equals builtin:z, so the build must succeed the same way
        assert code == 2  # builtin:radial demands --g builtin:z
        code, out, _ = run_cli(capsys, "weierstrass", "build",
                               "--g", "builtin:z", "--case", "1",
                               "--domain", "1.5:2.5:0.1:0.9", "--grid", "9",
                               "--boundary", "builtin:radial")
        assert code == 0

    def test_constant_powers_evaluate_complex(self, capsys):
        # A field spec is complex throughout: (-1)^0.5 is i, as sqrt(-1) is.
        reports = []
        for g in ("(-1)^0.5*(u+i*v)", "sqrt(-1)*(u+i*v)"):
            code, out, err = run_cli(capsys, "weierstrass", "build", "--g", g,
                                     "--case", "1", "--domain", "1.5:2.5:0.1:0.9",
                                     "--grid", "9", "--boundary", "u")
            assert code != 2 and err == ""
            reports.append((code, json.loads(out)["summary"]))
        (code_a, a), (code_b, b) = reports
        assert code_a == code_b and a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], float):
                assert a[key] == pytest.approx(b[key], rel=1e-9, abs=1e-12)
            else:
                assert a[key] == b[key]

    def test_incompatible_boundary_reports_failure(self, capsys):
        code, out, _ = run_cli(capsys, "weierstrass", "build",
                               "--g", "builtin:z", "--case", "1",
                               "--domain", "1.5:2.5:0.1:0.9", "--grid", "9",
                               "--boundary", "u + i*v")
        assert code == 1
        assert json.loads(out)["summary"]["error"] == "EmptyOutput"

    def test_modulus_violation_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "weierstrass", "build",
                               "--g", "builtin:z", "--case", "1",
                               "--domain", "0.5:2.5:0.1:0.9", "--grid", "9",
                               "--boundary", "builtin:radial")
        assert code == 2
        assert "ConstraintViolation" in err


class TestExportObj:
    def _write_grid_csv(self, path, n, drop=()):
        lines = ["i,j,u,v,x1,x2,x3"]
        for i in range(n):
            for j in range(n):
                if (i, j) in drop:
                    continue
                lines.append(f"{i},{j},{i},{j},{float(i)},{float(j)},1.0")
        path.write_text("\n".join(lines) + "\n")

    def test_two_by_two(self, capsys, tmp_path):
        src = tmp_path / "g.csv"
        self._write_grid_csv(src, 2)
        dst = tmp_path / "g.obj"
        code, out, _ = run_cli(capsys, "export", "obj", "--in", str(src),
                               "--out", str(dst))
        assert code == 0
        text = dst.read_text()
        assert text.count("\nf ") + text.startswith("f ") == 2
        assert text.count("v ") == 4
        assert "\r" not in text

    def test_sixteen_square(self, capsys, tmp_path):
        src = tmp_path / "g.csv"
        self._write_grid_csv(src, 16)
        dst = tmp_path / "g.obj"
        code, out, _ = run_cli(capsys, "export", "obj", "--in", str(src),
                               "--out", str(dst))
        assert code == 0
        report = json.loads(out)
        assert report["vertices"] == 256
        assert report["faces"] == 450

    def test_hole_policy(self, capsys, tmp_path):
        src = tmp_path / "g.csv"
        self._write_grid_csv(src, 4, drop={(1, 1)})
        dst = tmp_path / "g.obj"
        code, out, err = run_cli(capsys, "export", "obj", "--in", str(src),
                                 "--out", str(dst))
        assert code == 0
        report = json.loads(out)
        assert report["vertices"] == 15
        assert report["cells_skipped"] == 4
        assert report["faces"] == (9 - 4) * 2
        assert "omitted" in err

    def test_indices_are_one_based(self, capsys, tmp_path):
        src = tmp_path / "g.csv"
        self._write_grid_csv(src, 2)
        dst = tmp_path / "g.obj"
        run_cli(capsys, "export", "obj", "--in", str(src), "--out", str(dst))
        faces = [line for line in dst.read_text().splitlines()
                 if line.startswith("f ")]
        indices = [int(tok) for line in faces for tok in line.split()[1:]]
        assert min(indices) == 1
        assert max(indices) == 4

    def test_empty_grid(self, capsys, tmp_path):
        src = tmp_path / "g.csv"
        src.write_text("i,j,u,v,x1,x2,x3\n")
        code, _, err = run_cli(capsys, "export", "obj", "--in", str(src),
                               "--out", str(tmp_path / "g.obj"))
        assert code == 2
        assert "EmptyGrid" in err

    def test_full_pipeline_roundtrip(self, capsys, tmp_path):
        surf = tmp_path / "w.csv"
        run_cli(capsys, "weierstrass", "build", "--g", "builtin:z",
                "--case", "1", "--domain", "1.5:2.5:0.1:0.9", "--grid", "9",
                "--boundary", "builtin:radial", "--out", str(surf))
        dst = tmp_path / "w.obj"
        code, out, _ = run_cli(capsys, "export", "obj", "--in", str(surf),
                               "--out", str(dst))
        assert code == 0
        report = json.loads(out)
        assert report["vertices"] == 49
        assert report["faces"] == 72


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("zoo", "list"),
        ("check", "conformal", "ruled-6.7"),
        ("pde", "residual", "--eq", "6.2", "--graph", "u*v/sqrt(1+v^2)",
         "--grid", "0.1:0.9:5x0.1:0.9:5"),
        ("dualize", "translational-6.6", "--grid", "0.5:2:4x0.5:2:4"),
    ])
    def test_reports_byte_identical(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestBadInputsExitTwo:
    def test_weierstrass_single_node_grid(self, capsys):
        code, _, err = run_cli(capsys, "weierstrass", "build",
                               "--g", "builtin:z", "--case", "1",
                               "--domain", "1.5:2.5:0.1:0.9", "--grid", "1",
                               "--boundary", "builtin:radial")
        assert code == 2
        assert "ConstraintViolation" in err

    def test_weierstrass_reversed_domain(self, capsys):
        code, out, err = run_cli(capsys, "weierstrass", "build",
                                 "--g", "builtin:z", "--case", "1",
                                 "--domain", "2.5:1.5:0.1:0.9", "--grid", "9",
                                 "--boundary", "builtin:radial")
        assert code == 2
        assert out == ""
        assert "--domain" in err

    def test_weierstrass_overflowing_field(self, capsys):
        # |g|^4 overflows far out on the domain; the solver names that
        # instead of reporting a singular factorization after two warnings.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "weierstrass", "build",
                                     "--g", "builtin:z", "--case", "1",
                                     "--domain", "1.5:1e80:0.1:0.9", "--grid", "9",
                                     "--boundary", "u+i*v")
        assert (code, out) == (2, "")
        assert err.startswith("error: ConstraintViolation: ")
        assert err.count("\n") == 1
        assert caught == []

    @pytest.mark.parametrize("bounds", [("1", "-1", "-1", "1"),
                                        ("-1", "inf", "-1", "1")])
    def test_check_bad_graph_domain(self, capsys, bounds):
        code, out, err = run_cli(capsys, "check", "forms", "--graph", "1+u^2/8",
                                 "--graph-domain", *bounds)
        assert code == 2
        assert out == ""
        assert "--graph-domain" in err

    def test_fit_without_dual_partner(self, capsys):
        code, out, err = run_cli(capsys, "dualize", "horosphere", "--fit-isometry")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "'horosphere'" in err and "translational-6.6" in err

    @pytest.mark.parametrize("argv", [
        ("check", "forms", "ruled-6.7"),
        ("check", "conformal", "ruled-6.7"),
        ("dualize", "ruled-6.7"),
        ("zoo", "sample", "ruled-6.7", "--u", "0.5:1:2", "--v", "0.5:1:2"),
    ])
    def test_non_numeric_param(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--param", "c=abc")
        assert code == 2
        assert out == ""
        assert "ParamConstraint" in err and "'c'" in err

    @pytest.mark.parametrize("row", ["a,0,0,0,1,1,1", "0,0,0,0,1", "0,0,0,0,x,1,1"],
                             ids=["non_integer_index", "short_row",
                                  "non_numeric_coordinate"])
    def test_malformed_export_csv(self, capsys, tmp_path, row):
        src = tmp_path / "bad.csv"
        src.write_text("i,j,u,v,x1,x2,x3\n0,1,0,0,1,1,1\n" + row + "\n")
        dst = tmp_path / "bad.obj"
        code, out, err = run_cli(capsys, "export", "obj", "--in", str(src),
                                 "--out", str(dst))
        assert code == 2
        assert out == ""
        assert f"{src}, line 3" in err
        assert not dst.exists()

    @pytest.mark.parametrize("cells", [b"0,0,0,0,\xff\xfe,1,1",
                                       b"0,0,0,0," + b"1" * 200000 + b",1,1"],
                             ids=["undecodable_bytes", "oversized_field"])
    def test_unreadable_export_csv(self, capsys, tmp_path, cells):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"i,j,u,v,x1,x2,x3\n" + cells + b"\n")
        code, out, err = run_cli(capsys, "export", "obj", "--in", str(src),
                                 "--out", str(tmp_path / "bad.obj"))
        assert code == 2
        assert out == ""
        assert str(src) in err


class TestGateTable:
    def test_gates_are_the_acceptance_values(self):
        # The literals are the acceptance criteria; an edit to the CLI table
        # that loosens one, or a gate added without a value here, fails.
        assert cli.FORMS_GATES == {"normal_orthogonality": 1e-10,
                                   "normal_unit": 1e-10,
                                   "third_form_definition": 1e-10,
                                   "obata": 1e-9}
        gates = {name: getattr(cli, name) for name in dir(cli)
                 if name.startswith("TOL_")}
        assert gates == {"TOL_K_RELATION": 1e-9, "TOL_RHO_FORMULA": 1e-8,
                         "TOL_PDE": 1e-10, "TOL_TRANSFER": 1e-8,
                         "TOL_FIT": 1e-6, "TOL_DISCRETE": 1e-10,
                         "TOL_IDENTITY": 1e-10}


def run_contract(argv):
    """Run the CLI in-process; any exception but argparse's exit escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Graph expressions from the grammar, with leaves that overflow when
# combined: Python floats raise OverflowError or ValueError where numpy
# returns inf or nan.
GRAPH_LEAVES = st.one_of(
    st.sampled_from(["u", "v", "pi", "e", "0", "1", "0.5", "710", "1e308", "1e-320"]),
    st.floats(0, 1e308, allow_nan=False).map(repr))
GRAPH_EXPRS = st.recursive(
    GRAPH_LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(calc.FUNCTIONS), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda t: f"-({t})")),
    max_leaves=8)

PARAM_TARGETS = {"ruled-6.7": "c", "corollary-6": "c1", "horosphere": "c",
                 "flaherty-plus": "psi"}
CELLS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)

# Grid axis ends, --at coordinates and sample axes: non-finite, huge and
# tiny values next to ordinary ones, in any order.
AXIS_ENDS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0",
                     "0.3", "0.5", "1", "1.8", "2.5"]),
    st.floats().map(repr))
AXES = st.tuples(AXIS_ENDS, AXIS_ENDS, st.integers(0, 3)).map(
    lambda t: f"{t[0]}:{t[1]}:{t[2]}")
# The point commands, each missing only its --grid or --at.
POINT_COMMANDS = {
    "forms": ["check", "forms", "ruled-6.7"],
    "conformal": ["check", "conformal", "corollary-6"],
    "conformal-timelike": ["check", "conformal", "flaherty-plus"],
    "forms-graph": ["check", "forms", "--graph=u*v", "--space", "ds3"],
    "pde": ["pde", "residual", "--eq", "6.2", "--graph=exp(700)*u^2"],
    "dualize": ["dualize", "ruled-6.7"],
}


def strict_json(text):
    """The report, parsed as standard JSON: NaN and Infinity are no tokens."""
    def reject(token):
        raise ValueError(f"{token} is not a JSON value")
    return json.loads(text, parse_constant=reject)


class TestExitContract:
    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(PARAM_TARGETS)),
           command=st.sampled_from(["forms", "conformal"]),
           value=st.one_of(st.floats().map(repr), CELLS))
    @example(family="ruled-6.7", command="forms", value="abc")
    @example(family="corollary-6", command="forms", value="1e300")
    @example(family="horosphere", command="conformal", value="1e-300")
    @example(family="flaherty-plus", command="forms", value="exp(1000)")
    def test_param_values(self, family, command, value):
        code, out, err = run_contract(
            ["check", command, family, "--param", f"{PARAM_TARGETS[family]}={value}",
             "--grid", "0.2:0.8:2x0.2:0.8:2"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert json.loads(out)["schema_version"] == 1

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(st.integers(-2, 3).map(str), CELLS),
                                  min_size=4, max_size=8),
                         min_size=1, max_size=4))
    @example(rows=[["a", "0", "0", "0", "1", "1", "1"]])
    @example(rows=[["0", "0", "0", "0", "1"]])
    @example(rows=[["0", "0", "0", "0", "x", "1", "1"]])
    @example(rows=[["99999", "99999", "0", "0", "1", "1", "1"]])
    def test_export_cells(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "cells.csv")
            with open(src, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(cli.SURFACE_COLUMNS)
                writer.writerows(rows)
            code, out, err = run_contract(
                ["export", "obj", "--in", src, "--out", os.path.join(tmp, "cells.obj")])
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 0:
            assert json.loads(out)["schema_version"] == 1

    @settings(max_examples=80, deadline=None)
    @given(expr=st.one_of(GRAPH_EXPRS, CELLS),
           command=st.sampled_from(["forms h3", "forms ds3", "forms ds3-timelike",
                                    "pde 6.1", "pde 6.2"]))
    @example(expr="sin(u*1e308*10)", command="forms h3")
    @example(expr="cos((1e308)*(10))", command="pde 6.2")
    @example(expr="(1e308)^(2)", command="forms ds3")
    @example(expr="2^(1e308*10)", command="pde 6.1")
    @example(expr="2^(1e308*10)", command="forms h3")
    @example(expr="2^(1e308*10-1e308*10)", command="forms h3")
    @example(expr="exp(710)", command="forms ds3-timelike")
    @example(expr="(" * 400 + "u" + ")" * 400, command="forms h3")
    @example(expr="+".join(["u"] * 1500), command="pde 6.1")
    @example(expr="(-(7.88448908466234e-134))*(-(v))", command="forms h3")
    def test_graph_expressions(self, expr, command):
        kind, arg = command.split()
        grid = "0.2:0.8:2x0.2:0.8:2"
        if kind == "forms":
            argv = ["check", "forms", f"--graph={expr}", "--space", arg, "--grid", grid]
        else:
            argv = ["pde", "residual", "--eq", arg, f"--graph={expr}", "--grid", grid]
        code, out, err = run_contract(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert strict_json(out)["schema_version"] == 1

    # Domains of the radial test problem, from across the excluded circle
    # out to where |z|^2 overflows.
    SPANS = st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.9, 1.0001, 1.5, 2.5]),
                               st.integers(0, 200).map(lambda e: 10.0 ** e),
                               st.floats(-1e4, 1e4)),
                     min_size=2, max_size=2, unique=True).map(sorted)
    DOMAINS = st.tuples(SPANS, SPANS).map(lambda uv: ":".join(map(repr, uv[0] + uv[1])))

    @settings(max_examples=40, deadline=None)
    @given(domain=DOMAINS)
    @example(domain="1:2:1.4901161193847656e-08:0.9")   # s_lo = 1 + 2^-52
    def test_radial_build_domains(self, domain):
        code, out, err = run_contract(
            ["weierstrass", "build", "--g", "builtin:z", "--case", "1",
             "--boundary", "builtin:radial", "--grid", "5", f"--domain={domain}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert json.loads(out)["schema_version"] == 1

    @pytest.mark.parametrize("grid", ["5", "9"])
    @pytest.mark.parametrize("domain,expect", [
        ("1.5:1e3:0.1:0.9", 1), ("1.5:1e8:0.1:0.9", 1), ("1.5:1e100:0.1:0.9", 2),
        ("1.5:1e200:0.1:0.9", 2), ("1.0001:2.5:0.0:0.9", 2)])
    def test_radial_build_wide_domain_outcomes(self, domain, expect, grid):
        code, _, err = run_contract(
            ["weierstrass", "build", "--g", "builtin:z", "--case", "1",
             "--boundary", "builtin:radial", "--grid", grid, "--domain", domain])
        assert code == expect
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ConstraintViolation: ")

    # Fields and boundaries of the solver build: the built-in specs, small
    # complex expressions and the graph fuzz's expressions in u and v.
    FIELD_SPECS = st.one_of(
        st.sampled_from(["builtin:z", "builtin:radial", "u+i*v", "(u+i*v)/8",
                         "u-i*v", "2*i", "u", "exp(u+i*v)", "1/(u-i*v)"]),
        GRAPH_EXPRS, CELLS)
    # Grids stay at most 9 nodes a side, except those above the cap, which
    # must fail before any field is sampled.
    GRIDS = st.one_of(st.integers(-2, 9), st.integers(3, 9),
                      st.integers(130, 10**6)).map(str)

    @settings(max_examples=60, deadline=None)
    @given(g=FIELD_SPECS, boundary=FIELD_SPECS, case=st.sampled_from(["1", "2"]),
           im_tol=st.one_of(st.floats(0.0, 1.0), st.floats()).map(repr), grid=GRIDS)
    @example(g="u+i*v", boundary="u", case="1", im_tol="nan", grid="9")
    @example(g="u+i*v", boundary="u", case="1", im_tol="-1.0", grid="9")
    @example(g="u+i*v", boundary="u", case="1", im_tol="0.01", grid="100000")
    def test_build_fields_and_grids(self, g, boundary, case, im_tol, grid):
        code, out, err = run_contract(
            ["weierstrass", "build", f"--g={g}", f"--boundary={boundary}",
             "--case", case, "--domain", "1.5:2.5:0.1:0.9", f"--grid={grid}",
             f"--im-tol={im_tol}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert json.loads(out)["schema_version"] == 1

    BUILD = ["weierstrass", "build", "--g", "u+i*v", "--case", "1",
             "--domain", "1.5:2.5:0.1:0.9", "--boundary", "u"]

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_im_tol_is_a_usage_error(self, tol):
        # A NaN tolerance used to switch the imaginary-height gate off: every
        # pass flag read true at max_height_imag_rel 0.217.
        code, out, err = run_contract([*self.BUILD, "--grid", "9", "--im-tol", tol])
        assert (code, out) == (2, "")
        assert err.startswith("error: --im-tol needs a finite value >= 0")
        code, out, _ = run_contract([*self.BUILD, "--grid", "9"])
        assert code == 1
        assert json.loads(out)["summary"]["error"] == "NonRealHeight"

    def test_oversized_grid_fails_before_sampling(self):
        start = time.perf_counter()
        code, out, err = run_contract([*self.BUILD, "--grid", "100000"])
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err == ("error: ConstraintViolation: "
                       "grid 100000x100000 exceeds the 129 cap\n")

    @pytest.mark.parametrize("argv", [
        ["zoo", "sample", "ruled-6.7", "--u", "0.3:0.8:200000000", "--v", "0.2:1.4:2"],
        ["check", "forms", "ruled-6.7", "--grid", "0.3:0.8:200000000x2.0:2.5:2"],
        ["check", "forms", "ruled-6.7", "--grid", "0:1:100000x0:1:100000"],
    ], ids=["zoo-sample", "check-forms", "moderate-axes"])
    def test_oversized_point_grid_is_a_usage_error(self, argv):
        start = time.perf_counter()
        code, out, err = run_contract(argv)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "more than 1000000" in err
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(sorted(POINT_COMMANDS)), u=AXES, v=AXES)
    @example(command="pde", u="0.5:1:2", v="0:1:2")
    @example(command="forms", u="1e308:-1e308:3", v="2:2.5:2")
    def test_point_grids(self, command, u, v):
        code, out, err = run_contract([*POINT_COMMANDS[command], f"--grid={u}x{v}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert strict_json(out)["schema_version"] == 1

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(sorted(set(POINT_COMMANDS) - {"pde", "dualize"})),
           u=AXIS_ENDS, v=AXIS_ENDS)
    @example(command="forms", u="nan", v="1")
    def test_point_at(self, command, u, v):
        code, out, err = run_contract([*POINT_COMMANDS[command], f"--at={u},{v}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert strict_json(out)["schema_version"] == 1

    @settings(max_examples=60, deadline=None)
    @given(u=AXES, v=AXES)
    @example(u="-1e308:1e308:3", v="0:1:2")
    def test_zoo_sample_axes(self, u, v):
        code, out, err = run_contract(["zoo", "sample", "ruled-6.7", f"--u={u}", f"--v={v}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 2:
            assert strict_json(out)["schema_version"] == 1

    @pytest.mark.parametrize("eq", ["6.1", "6.2"])
    def test_non_finite_residual_fails_its_point(self, eq):
        # The residual used to be NaN with status ok: max() never picks a
        # NaN, so max_abs_residual read 0.0 and every pass flag true.
        code, out, err = run_contract(["pde", "residual", "--eq", eq,
                                       "--graph=exp(700)*u^2", "--grid=0.5:1:2x0:1:2"])
        assert (code, err) == (1, "")
        report = strict_json(out)
        assert [p["status"] for p in report["points"]] == ["EvaluationError"] * 4
        assert report["points"][0]["error"] == "residual is not finite"
        assert report["summary"]["failures_by_kind"] == {"EvaluationError": 4}
        assert report["summary"]["pass"]["all_points_evaluated"] is False

    def test_non_finite_forms_value_fails_its_point(self):
        # At height 1.6e-134 the induced metric's determinant overflows: K
        # read NaN and two residuals Infinity, with status ok.  The forms
        # now reject the infinite determinant before K is formed.
        code, out, err = run_contract(["check", "forms", "--graph=7.88e-134*v",
                                       "--at", "0.2,0.2"])
        assert (code, err) == (1, "")
        point, = strict_json(out)["points"]
        assert point == {"u": 0.2, "v": 0.2, "status": "NonImmersed",
                         "error": "induced metric is not finite (det inf)"}

    def test_non_finite_at_is_a_usage_error(self):
        code, out, err = run_contract(["check", "forms", "ruled-6.7", "--at", "nan,1"])
        assert (code, out) == (2, "")
        assert err == "error: --at 'nan,1' needs finite u and v\n"

    @pytest.mark.parametrize("argv", [
        ["check", "forms", "ruled-6.7", "--grid=1e308:-1e308:3x2:2.5:2"],
        ["zoo", "sample", "ruled-6.7", "--u=-1e308:1e308:3", "--v", "0:1:2"],
        ["check", "conformal", "ruled-6.7", "--grid=0.3:0.8:2xinf:2.5:2"],
    ], ids=["check-forms", "zoo-sample", "infinite-end"])
    def test_non_finite_axis_is_a_usage_error(self, argv):
        # The span's width overflowed, and the points read u = NaN and -inf.
        code, out, err = run_contract(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: grid axis ")
        assert err.endswith(" needs finite ends and a finite span\n")

    @pytest.mark.parametrize("expr", ["2^(1e308*10)", "2^(1e308*10-1e308*10)"])
    def test_non_finite_exponent_is_a_domain_error(self, expr):
        code, out, err = run_contract(["check", "forms", f"--graph={expr}",
                                       "--at", "0.1,0.2"])
        assert (code, err) == (1, "")
        assert [p["status"] for p in json.loads(out)["points"]] == ["DomainError"]
