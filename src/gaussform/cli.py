"""Command-line front end.

Subcommands
-----------
``zoo list``                 enumerate surface families and parameter schemas
``zoo sample``               sample a family to CSV (columns i,j,u,v,x1,x2,x3)
``check forms``              normal/forms invariants point by point
``check conformal``          conformality classification and curvature relations
``pde residual``             graph PDE residual on a grid
``dualize``                  polar variety with curvature/volume transfer
``weierstrass build``        solve the compatibility PDE and build the surface
``export obj``               triangulate a sampled grid CSV into an OBJ mesh

Reports are JSON on stdout and byte-deterministic for identical inputs.  Exit
status: 0 all checks passed, 1 checks ran but something failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

# numpy, duality and weierstrass are imported by the commands that use them,
# so the point commands start without numpy.
from . import ambient as amb
from . import calculus as calc
from . import forms, zoo
from .errors import EmptyGrid, EmptyOutput, EvaluationError, GaussformError, NonRealHeight

SCHEMA_VERSION = 1

# Pass/fail gates of the reports.  ``check forms`` reads FORMS_GATES by the
# residual names it prints.  The acceptance suite and perfbench/checks.py keep
# their own literal copies; tests/test_cli.py pins this block to them.
FORMS_GATES = {"normal_orthogonality": 1e-10, "normal_unit": 1e-10,
               "third_form_definition": 1e-10, "obata": 1e-9}
TOL_K_RELATION = 1e-9
TOL_RHO_FORMULA = 1e-8
TOL_PDE = 1e-10
TOL_TRANSFER = 1e-8
TOL_FIT = 1e-6
TOL_DISCRETE = 1e-10
TOL_IDENTITY = 1e-10

# Default check grid: samples per axis, and the fraction of each side kept
# clear of the domain boundary.
GRID_COUNT = 8
GRID_INSET = 0.05
# Most points one --grid, or zoo sample's --u by --v, may ask for.
MAX_GRID_POINTS = 10**6

# A point or sample that raises one of these is recorded as failed; float
# overflow and division by zero come from extreme parameters.
POINT_ERRORS = (GaussformError, ArithmeticError)

SURFACE_COLUMNS = ["i", "j", "u", "v", "x1", "x2", "x3"]
FIELD_COLUMNS = ["i", "j", "u", "v", "Re", "Im"]

_EXPECTED_CLASS = {
    zoo.CONFORMAL: forms.ConformalityReport.CONFORMAL,
    zoo.GEODESIC: forms.ConformalityReport.TOTALLY_GEODESIC,
    zoo.CONTROL: forms.ConformalityReport.NOT_CONFORMAL,
}


class UsageError(Exception):
    pass


def _parse_axis(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid axis {spec!r} must be a:b:N")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid axis {spec!r} must be a:b:N") from None
    if count < 1:
        raise UsageError(f"grid axis {spec!r} needs at least one sample")
    if not math.isfinite(hi - lo):       # also NaN or infinite ends
        raise UsageError(f"grid axis {spec!r} needs finite ends and a finite span")
    return lo, hi, count


def _grid_axes(u_spec: str, v_spec: str):
    (u0, u1, nu), (v0, v1, nv) = _parse_axis(u_spec), _parse_axis(v_spec)
    if nu * nv > MAX_GRID_POINTS:
        raise UsageError(f"grid {u_spec!r} by {v_spec!r} has {nu * nv} points, "
                         f"more than {MAX_GRID_POINTS}")
    return calc.linspace(u0, u1, nu), calc.linspace(v0, v1, nv)


def _parse_grid(spec: str):
    parts = spec.split("x")
    if len(parts) != 2:
        raise UsageError(f"grid {spec!r} must be a:b:Nxc:d:M")
    return _grid_axes(*parts)


def _check_rectangle(flag, u0, u1, v0, v1):
    finite = all(math.isfinite(t) for t in (u0, u1, v0, v1))
    if not (finite and u0 < u1 and v0 < v1):
        raise UsageError(f"{flag} needs finite u0 < u1 and v0 < v1, "
                         f"got {u0:g} {u1:g} {v0:g} {v1:g}")
    return u0, u1, v0, v1


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--param {item!r} must be name=value")
        name, _, value = item.partition("=")
        try:
            params[name] = float(value)
        except ValueError:
            params[name] = value      # expression-valued parameters
    return params


def _default_grid(chart):
    u0, u1, v0, v1 = chart.domain
    mu, mv = GRID_INSET * (u1 - u0), GRID_INSET * (v1 - v0)
    return (calc.linspace(u0 + mu, u1 - mu, GRID_COUNT),
            calc.linspace(v0 + mv, v1 - mv, GRID_COUNT))


def _json_default(obj):
    np = sys.modules.get("numpy")     # no numpy value exists before its import
    if np is not None:
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _record_failure(rec, exc, kinds):
    """Mark a point record failed with the error class and message, and
    count the class in ``kinds``."""
    name = type(exc).__name__
    rec["status"] = name
    rec["error"] = str(exc)
    kinds[name] = kinds.get(name, 0) + 1


def _non_finite(rec):
    """The first field of a record that is, or holds, an infinite or NaN float."""
    for name, value in rec.items():
        values = (value.values() if isinstance(value, dict)
                  else value if isinstance(value, list) else [value])
        if any(isinstance(x, float) and not math.isfinite(x) for x in values):
            return name
    return None


def _point_records(points, evaluate):
    """One record per (u, v) point, filled in place by ``evaluate(rec, u, v)``.

    An error of POINT_ERRORS marks the record failed and keeps the fields
    written before it.  A record left with an infinite or NaN value fails
    with EvaluationError and keeps only u and v, so reports are standard JSON
    and no NaN passes a gate.  Returns (records, failures_by_kind).
    """
    records = []
    kinds = {}
    for u, v in points:
        rec = {"u": u, "v": v}
        try:
            evaluate(rec, u, v)
            bad = _non_finite(rec)
            if bad is not None:
                rec = {"u": u, "v": v}
                raise EvaluationError(f"{bad} is not finite")
        except POINT_ERRORS as exc:
            _record_failure(rec, exc, kinds)
        records.append(rec)
    return records, kinds


def _largest(values):
    """The largest of 0.0 and ``values``, taken in order like a running max."""
    return max([0.0, *values])


def _summary(fields, kinds, passes):
    """A report summary: ``fields``, then ``failures_by_kind`` when something
    failed, then the pass flags."""
    summary = dict(fields)
    if kinds:
        summary["failures_by_kind"] = dict(sorted(kinds.items()))
    summary["pass"] = passes
    return summary


def _emit(report):
    json.dump(report, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _chart_from_args(args):
    """Family or free-graph chart for the check subcommands."""
    if args.family is not None:
        chart = zoo.make_surface(args.family, _parse_params(args.param))
        fam = zoo.get_family(args.family)
        return chart, fam
    if args.graph is None:
        raise UsageError("give a family name or --graph EXPR")
    expr = calc.parse_graph_expr(args.graph)
    space = zoo.space_for(args.space)
    domain = _check_rectangle("--graph-domain", *args.graph_domain)
    chart = calc.SurfaceChart(domain, calc.GraphEvaluator(expr), space)
    return chart, None


def _grid_points(spec, chart):
    """Points of a ``--grid`` spec, or of the chart's default grid."""
    us, vs = _parse_grid(spec) if spec is not None else _default_grid(chart)
    return [(u, v) for u in us for v in vs]


def _points_from_args(args, chart):
    if args.at is not None:
        try:
            u, v = (float(t) for t in args.at.split(","))
        except ValueError:
            raise UsageError(f"--at {args.at!r} must be u,v") from None
        if not (math.isfinite(u) and math.isfinite(v)):
            raise UsageError(f"--at {args.at!r} needs finite u and v")
        return [(u, v)]
    return _grid_points(args.grid, chart)


# --------------------------------------------------------------------------
# zoo
# --------------------------------------------------------------------------

def _cmd_zoo_list(args):
    families = []
    for key in zoo.family_keys():
        fam = zoo.get_family(key)
        families.append({
            "key": key,
            "description": fam.description,
            "space": fam.space_tag,
            "parameters": {k: (v if isinstance(v, str) else float(v))
                           for k, v in sorted(fam.defaults.items())},
            "default_domain": list(fam.default_domain(dict(fam.defaults))),
            "conformal": fam.conformal,
            "graph_pde": fam.graph_pde,
        })
    _emit({"schema_version": SCHEMA_VERSION, "command": "zoo list",
           "families": families})
    return 0


def _cmd_zoo_sample(args):
    chart = zoo.make_surface(args.family, _parse_params(args.param))
    us, vs = _grid_axes(args.u, args.v)
    rows = []
    failed = []
    kinds = {}
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            try:
                x, _, _ = chart.evaluator.jet(u, v)
            except POINT_ERRORS as exc:
                rec = {"i": i, "j": j, "u": u, "v": v}
                _record_failure(rec, exc, kinds)
                failed.append(rec)
                continue
            rows.append((i, j, u, v, x[0], x[1], x[2]))
    failures = len(failed)
    if args.out:
        _write_csv(args.out, SURFACE_COLUMNS, rows)
    report = {"schema_version": SCHEMA_VERSION,
              "command": f"zoo sample {args.family}",
              "rows": len(rows), "failed_samples": failures,
              "out": args.out}
    if failed:
        report["failed_points"] = failed
        report["failures_by_kind"] = dict(sorted(kinds.items()))
    _emit(report)
    if failures:
        print(f"{failures} samples failed to evaluate", file=sys.stderr)
    return 1 if failures else 0


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def _cmd_check_forms(args):
    chart, _ = _chart_from_args(args)

    def evaluate(rec, u, v):
        jet = calc.jet2_eval(chart, (u, v))
        bundle = forms.fundamental_forms(jet, chart.ambient,
                                         chart.orientation_at((u, v)))
        rec.update({"x": list(jet.x), "eta": bundle.eta,
                    "H": bundle.mean_curvature, "K": bundle.gauss_curvature,
                    "residuals": forms.check_residuals(jet, bundle),
                    "status": "ok"})

    records, kinds = _point_records(_points_from_args(args, chart), evaluate)
    maxima = {name: _largest(r["residuals"][name] for r in records if "residuals" in r)
              for name in FORMS_GATES}
    passes = {name: maxima[name] <= tol for name, tol in FORMS_GATES.items()}
    passes["all_points_evaluated"] = not kinds
    _emit({"schema_version": SCHEMA_VERSION, "command": "check forms",
           "target": args.family or args.graph, "points": records,
           "summary": _summary({"maxima": maxima}, kinds, passes)})
    return 0 if all(passes.values()) else 1


def _cmd_check_conformal(args):
    chart, fam = _chart_from_args(args)
    expected = _EXPECTED_CLASS[fam.conformal] if fam is not None else None
    space_like = chart.ambient.causal_class is amb.CausalClass.SPACE_LIKE

    def evaluate(rec, u, v):
        bundle = forms.forms_at(chart, (u, v))
        report = forms.conformality_test(bundle)
        rec.update({"classification": report.classification,
                    "rho": report.rho, "residual": report.residual,
                    "K": bundle.gauss_curvature,
                    "eta3": float(bundle.eta[2]), "status": "ok"})
        if report.classification == forms.ConformalityReport.CONFORMAL:
            rec["k_relation_residual"] = forms.curvature_relation_residual(bundle)
            if space_like:
                rec["rho_formula_residual"] = forms.rho_formula_residual(bundle,
                                                                         report.rho)

    records, kinds = _point_records(_points_from_args(args, chart), evaluate)
    max_k_rel = _largest(r["k_relation_residual"] for r in records
                         if "k_relation_residual" in r)
    max_rho_rel = _largest(r["rho_formula_residual"] for r in records
                           if "rho_formula_residual" in r)
    mismatches = 0 if expected is None else sum(
        1 for r in records if r.get("classification", expected) != expected)
    passes = {"all_points_evaluated": not kinds}
    if expected is not None:
        passes["classification_matches"] = mismatches == 0
        if fam.conformal == zoo.CONFORMAL:
            passes["curvature_relation"] = max_k_rel <= TOL_K_RELATION
            if space_like:
                passes["rho_formula"] = max_rho_rel <= TOL_RHO_FORMULA
    _emit({"schema_version": SCHEMA_VERSION, "command": "check conformal",
           "target": args.family or args.graph,
           "expected_classification": expected,
           "points": records,
           "summary": _summary({"max_k_relation_residual": max_k_rel,
                                "max_rho_formula_residual": max_rho_rel,
                                "mismatches": mismatches}, kinds, passes)})
    return 0 if all(passes.values()) else 1


# --------------------------------------------------------------------------
# pde
# --------------------------------------------------------------------------

def _cmd_pde_residual(args):
    expr = calc.parse_graph_expr(args.graph)

    def evaluate(rec, u, v):
        rec["residual"] = zoo.graph_pde_residual(expr, (u, v), args.eq)
        if args.eq == zoo.PDE_DS3:
            grad_sq = zoo.gradient_square(expr, (u, v))
            rec["gradient_square"] = grad_sq
            rec["regime"] = ("space_like" if grad_sq < 1.0
                             else "time_like" if grad_sq > 1.0 else "null")
        rec["status"] = "ok"

    records, kinds = _point_records(_grid_points(args.grid, None), evaluate)
    worst = _largest(abs(r["residual"]) for r in records if r["status"] == "ok")
    failures = sum(kinds.values())
    passes = {"residual": worst <= TOL_PDE, "all_points_evaluated": failures == 0}
    _emit({"schema_version": SCHEMA_VERSION,
           "command": f"pde residual --eq {args.eq}",
           "graph": args.graph, "points": records,
           "summary": _summary({"max_abs_residual": worst, "failures": failures},
                               kinds, passes)})
    return 0 if all(passes.values()) else 1


# --------------------------------------------------------------------------
# dualize
# --------------------------------------------------------------------------

def _cmd_dualize(args):
    from . import duality

    params = _parse_params(args.param)
    chart = zoo.make_surface(args.family, params)
    if args.fit_isometry and args.family not in duality.PAIRINGS:
        raise UsageError(f"--fit-isometry: no recorded dual partner for "
                         f"{args.family!r}; families with one: "
                         f"{', '.join(duality.PAIRINGS)}")
    dual = duality.polar_chart(chart)

    def evaluate(rec, u, v):
        pp = duality.polar_variety(chart, (u, v))
        rec.update({
            "dual_position": list(pp.position.coords),
            "source_K": pp.source_curvature,
            "volume_ratio": pp.volume_ratio,
            "branch": pp.branch_flag,
            "status": "ok",
        })
        if pp.branch_flag:
            rec["dual_K"] = None
        else:
            rec["dual_K"] = pp.dual_curvature
            measured = forms.forms_at(dual, (u, v)).gauss_curvature
            rec["transfer_residual"] = abs(measured - pp.dual_curvature)

    records, kinds = _point_records(_grid_points(args.grid, chart), evaluate)
    transferred = [r for r in records if "transfer_residual" in r]
    failures = sum(kinds.values())
    # Relative gate: near the branch locus the dual curvature grows without
    # bound and carries proportional rounding.
    passes = {"transfer_law": not any(
                  r["transfer_residual"] > TOL_TRANSFER * max(1.0, abs(r["dual_K"]))
                  for r in transferred),
              "all_points_evaluated": failures == 0}
    fields = {"max_transfer_residual": _largest(r["transfer_residual"]
                                                for r in transferred),
              "failures": failures}
    if args.fit_isometry:
        target_key, fit = duality.fit_family_pairing(args.family, params)
        fields["isometry_fit"] = {
            "target_family": target_key, "theta": fit.theta,
            "a": fit.a, "b": fit.b, "max_gap": fit.max_gap,
            "variant": fit.label,
        }
        passes["isometry_fit"] = fit.max_gap <= TOL_FIT
    _emit({"schema_version": SCHEMA_VERSION,
           "command": f"dualize {args.family}", "points": records,
           "summary": _summary(fields, kinds, passes)})
    return 0 if all(passes.values()) else 1


# --------------------------------------------------------------------------
# weierstrass
# --------------------------------------------------------------------------

def _complex_field_from_spec(spec, domain, n, role):
    import numpy as np

    from . import weierstrass

    if spec == "builtin:z":
        return weierstrass.ComplexField.from_function(
            lambda z: z, domain, (n, n), role)
    expr = calc.parse_graph_expr(spec, complex_unit=True)

    def fn(z):
        out = np.empty(z.shape, dtype=complex)
        for idx in np.ndindex(z.shape):
            out[idx] = expr(complex(z[idx].real), complex(z[idx].imag))
        return out

    return weierstrass.ComplexField.from_function(fn, domain, (n, n), role)


def _cmd_weierstrass_build(args):
    import numpy as np

    from . import weierstrass

    try:
        u0, u1, v0, v1 = (float(t) for t in args.domain.split(":"))
    except ValueError:
        raise UsageError(f"--domain {args.domain!r} must be u0:u1:v0:v1") from None
    domain = _check_rectangle("--domain", u0, u1, v0, v1)
    if not (math.isfinite(args.im_tol) and args.im_tol >= 0.0):
        raise UsageError(f"--im-tol needs a finite value >= 0, got {args.im_tol!r}")
    n = args.grid
    weierstrass.check_grid(n, n)
    g = _complex_field_from_spec(args.g, domain, n,
                                 weierstrass.ROLE_NORMAL_MAP)
    if args.boundary == "builtin:radial":
        if args.g != "builtin:z":
            raise UsageError("builtin:radial boundary data requires --g builtin:z")
        _, gex = weierstrass.radial_test_pair(domain, (n, n))
        boundary = gex.values
    else:
        boundary = _complex_field_from_spec(args.boundary, domain, n,
                                            weierstrass.ROLE_FAR_MAP).values
    solved = weierstrass.solve_far_map(g, boundary, args.case)
    discrete = float(np.abs(
        weierstrass.compatibility_residual_field(g, solved, args.case)).max())
    try:
        built = weierstrass.build_surface(g, solved, args.case,
                                          im_tol=args.im_tol)
    except (EmptyOutput, NonRealHeight) as exc:
        _emit({"schema_version": SCHEMA_VERSION, "command": "weierstrass build",
               "summary": {"discrete_residual": discrete,
                           "error": type(exc).__name__,
                           "detail": str(exc),
                           "pass": {"built": False}}})
        return 1
    identity = weierstrass.surface_identity_defect(built)
    dropped = {}
    for reason in np.unique(built.drop_reason):
        if reason:
            dropped[str(reason)] = int((built.drop_reason == reason).sum())
    if args.out:
        us, vs, samples = (a.tolist() for a in (built.u_coords, built.v_coords, built.samples))
        _write_csv(args.out, SURFACE_COLUMNS,
                   ([i, j, us[i], vs[j], *samples[i][j]]
                    for i, j in np.argwhere(built.kept).tolist()))
    if args.out_g:
        _write_csv(args.out_g, FIELD_COLUMNS, weierstrass.field_to_rows(g))
    if args.out_far:
        _write_csv(args.out_far, FIELD_COLUMNS, weierstrass.field_to_rows(solved))
    passes = {"discrete_residual": discrete <= TOL_DISCRETE,
              "identity": identity <= TOL_IDENTITY,
              "built": built.kept_count > 0}
    _emit({"schema_version": SCHEMA_VERSION, "command": "weierstrass build",
           "summary": {
               "case": args.case, "grid": n,
               "kept_samples": built.kept_count,
               "dropped": dropped,
               "discrete_residual": discrete,
               "identity_defect": identity,
               "max_height_imag_rel": float(
                   built.height_imag_rel[built.kept].max()),
               "out": args.out,
               "pass": passes,
           }})
    return 0 if all(passes.values()) else 1


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def _read_samples(path):
    """{(i, j): (x1, x2, x3)} of a sample CSV, skipping rows with a NaN
    coordinate.  A malformed file raises UsageError naming the file, and the
    line where the CSV reader can tell it."""
    grid = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            needed = {"i", "j", "x1", "x2", "x3"}
            if reader.fieldnames is None or not needed <= set(reader.fieldnames):
                raise UsageError(f"{path}: expected columns "
                                 f"{','.join(SURFACE_COLUMNS)}")
            for row in reader:
                i, j = int(row["i"]), int(row["j"])
                x = (float(row["x1"]), float(row["x2"]), float(row["x3"]))
                if not any(math.isnan(c) for c in x):
                    grid[(i, j)] = x
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}: cannot decode the file ({exc.reason})") from None
        except TypeError:             # a short row leaves its missing cells None
            raise UsageError(f"{path}, line {reader.line_num}: too few cells") from None
        except csv.Error as exc:      # raised before the reader counts the line
            raise UsageError(f"{path}, line {reader.line_num + 1}: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"{path}, line {reader.line_num}: {exc}") from None
    return grid


def _cmd_export_obj(args):
    grid = _read_samples(args.infile)
    if not grid:
        raise EmptyGrid(f"{args.infile} has no usable samples")

    # Row-major over the samples themselves, so the work grows with the rows
    # and not with the largest index; a cell is meshed when its four corners
    # were sampled.
    index = {}
    lines = []
    for key in sorted(k for k in grid if min(k) >= 0):
        index[key] = len(index) + 1      # OBJ indices are 1-based
        x = grid[key]
        lines.append(f"v {x[0]:.17g} {x[1]:.17g} {x[2]:.17g}")
    cells = 0
    for i, j in index:
        corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        if all(c in index for c in corners):
            a, b, c, d = (index[c] for c in corners)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
            cells += 1
    faces = 2 * cells
    holes = (max(0, max(i for i, _ in grid)) * max(0, max(j for _, j in grid))
             - cells)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    if holes:
        print(f"{holes} cells touched missing samples; their faces were omitted",
              file=sys.stderr)
    _emit({"schema_version": SCHEMA_VERSION, "command": "export obj",
           "vertices": len(index), "faces": faces, "cells_skipped": holes,
           "out": args.out})
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

def _add_check_common(sub):
    sub.add_argument("family", nargs="?", default=None,
                     help="zoo family key (or use --graph)")
    sub.add_argument("--param", action="append", metavar="NAME=VALUE")
    sub.add_argument("--graph", metavar="EXPR",
                     help="free graph height f(u, v)")
    sub.add_argument("--space", choices=[zoo.H3, zoo.DS3, zoo.DS3_TIMELIKE],
                     default=zoo.H3, help="ambient for --graph")
    sub.add_argument("--graph-domain", type=float, nargs=4,
                     default=(-1.0, 1.0, -1.0, 1.0),
                     metavar=("U0", "U1", "V0", "V1"))
    sub.add_argument("--at", metavar="U,V", help="single evaluation point")
    sub.add_argument("--grid", metavar="a:b:Nxc:d:M")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaussform",
        description="Fundamental forms, Gauss maps, and polar duality for "
                    "surfaces in the two half-space model geometries.")
    top = parser.add_subparsers(dest="command", required=True)

    zoo_p = top.add_parser("zoo", help="surface family registry")
    zoo_sub = zoo_p.add_subparsers(dest="zoo_command", required=True)
    zoo_sub.add_parser("list", help="list families").set_defaults(run=_cmd_zoo_list)
    sample = zoo_sub.add_parser("sample", help="sample a family to CSV")
    sample.set_defaults(run=_cmd_zoo_sample)
    sample.add_argument("family")
    sample.add_argument("--param", action="append", metavar="NAME=VALUE")
    sample.add_argument("--u", required=True, metavar="a:b:N")
    sample.add_argument("--v", required=True, metavar="a:b:N")
    sample.add_argument("--out", metavar="FILE")

    check = top.add_parser("check", help="verification reports")
    check_sub = check.add_subparsers(dest="check_command", required=True)
    cf = check_sub.add_parser("forms", help="normal and form invariants")
    cf.set_defaults(run=_cmd_check_forms)
    _add_check_common(cf)
    cc = check_sub.add_parser("conformal", help="conformality classification")
    cc.set_defaults(run=_cmd_check_conformal)
    _add_check_common(cc)

    pde = top.add_parser("pde", help="graph PDE residuals")
    pde_sub = pde.add_subparsers(dest="pde_command", required=True)
    pr = pde_sub.add_parser("residual")
    pr.set_defaults(run=_cmd_pde_residual)
    pr.add_argument("--eq", required=True, choices=[zoo.PDE_H3, zoo.PDE_DS3])
    pr.add_argument("--graph", required=True, metavar="EXPR")
    pr.add_argument("--grid", required=True, metavar="a:b:Nxc:d:M")

    dz = top.add_parser("dualize", help="polar variety of a family")
    dz.set_defaults(run=_cmd_dualize)
    dz.add_argument("family")
    dz.add_argument("--param", action="append", metavar="NAME=VALUE")
    dz.add_argument("--grid", metavar="a:b:Nxc:d:M")
    dz.add_argument("--fit-isometry", action="store_true",
                    help="fit the known dual partner family")

    wb = top.add_parser("weierstrass", help="prescribed-Gauss-map builder")
    wb_sub = wb.add_subparsers(dest="weierstrass_command", required=True)
    build = wb_sub.add_parser("build")
    build.set_defaults(run=_cmd_weierstrass_build)
    build.add_argument("--g", required=True,
                       help="normal map: builtin:z or EXPR in u, v, i")
    build.add_argument("--case", type=int, choices=[1, 2], default=1)
    build.add_argument("--domain", required=True, metavar="u0:u1:v0:v1")
    build.add_argument("--grid", type=int, required=True, metavar="N")
    build.add_argument("--boundary", required=True,
                       help="far-map boundary: EXPR in u, v, i or builtin:radial")
    build.add_argument("--im-tol", type=float, default=1e-2,
                       help="relative imaginary-height tolerance "
                            "(solver output carries O(h^2) contamination)")
    build.add_argument("--out", metavar="FILE",
                       help="surface sample CSV (i,j,u,v,x1,x2,x3)")
    build.add_argument("--out-g", metavar="FILE",
                       help="normal-map field CSV (i,j,u,v,Re,Im)")
    build.add_argument("--out-far", metavar="FILE",
                       help="solved far-map field CSV (i,j,u,v,Re,Im)")

    exp = top.add_parser("export", help="mesh export")
    exp_sub = exp.add_subparsers(dest="export_command", required=True)
    obj = exp_sub.add_parser("obj")
    obj.set_defaults(run=_cmd_export_obj)
    obj.add_argument("--in", dest="infile", required=True, metavar="FILE.csv")
    obj.add_argument("--out", required=True, metavar="FILE.obj")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except POINT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
