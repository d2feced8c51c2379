"""The cli-session workload: real gaussform commands, one fresh interpreter each.

One item is one command from a fixed script.  The seed only shuffles the
script; a command that reads another's output stays right after it.  Every
command is checked for its contract outcome: the exit code, no traceback on
stderr, a JSON report with ``schema_version`` on exit 0 or 1, and the report
figures against the acceptance tolerances.
"""

import json
import os
import subprocess
import sys
import time

from checks import Incorrect, TOL, Unexpected, within

DOMAIN = "1.5:2.5:0.1:0.9"


def _zoo_list(report, _):
    if len(report["families"]) != 33:
        raise Incorrect(f"zoo list has {len(report['families'])} families, expected 33")


def _zoo_sample(report, tmp):
    if report["rows"] != 256:
        raise Incorrect(f"zoo sample wrote {report['rows']} rows, expected 256")
    with open(os.path.join(tmp, "ruled.csv")) as fh:
        if sum(1 for _ in fh) != 257:
            raise Incorrect("sample CSV does not hold a header and 256 rows")


def _all_pass(report, _):
    failed = [k for k, ok in report["summary"]["pass"].items() if not ok]
    if failed:
        raise Incorrect(f"checks failed: {failed}")


def _control_classes(report, _):
    _all_pass(report, _)
    classes = {rec["classification"] for rec in report["points"]}
    if classes != {"not_conformal"}:
        raise Incorrect(f"control classified as {sorted(classes)}")


def _pde_solution(report, _):
    _all_pass(report, _)
    within("graph PDE residual", report["summary"]["max_abs_residual"], "graph_pde")


def _pde_control(report, _):
    if report["summary"]["max_abs_residual"] <= TOL["graph_pde"]:
        raise Incorrect("the nonconformal control satisfies the PDE")


def _dualize(report, _):
    _all_pass(report, _)
    fit = report["summary"]["isometry_fit"]
    within("isometry fit gap", fit["max_gap"], "isometry_fit")


def _build(report, tmp):
    _all_pass(report, tmp)
    summary = report["summary"]
    within("discrete residual", summary["discrete_residual"], "discrete")
    within("identity defect", summary["identity_defect"], "identity")
    if summary["kept_samples"] != 63 * 63:
        raise Incorrect(f"kept {summary['kept_samples']} samples, expected {63 * 63}")


def _export(report, _):
    if (report["vertices"], report["faces"]) != (63 * 63, 2 * 62 * 62):
        raise Incorrect(f"mesh has {report['vertices']} vertices and "
                        f"{report['faces']} faces")


# Units of (argv, expected exit code, report check, files written).  "{tmp}"
# is the run's scratch directory.  The last command is a known defect: the
# contract outcome is exit 2, but the seed raises ZeroDivisionError.
SCRIPT = [
    [(["zoo", "list"], 0, _zoo_list, [])],
    [(["zoo", "sample", "ruled-6.2-2", "--param", "c=1", "--u", "0.3:0.8:16",
       "--v", "0.2:1.4:16", "--out", "{tmp}/ruled.csv"], 0, _zoo_sample,
      ["ruled.csv"])],
    [(["check", "forms", "translational-6.4", "--grid", "0.1:0.5:6x0.1:0.5:6"],
      0, _all_pass, [])],
    [(["check", "forms", "corollary-6"], 0, _all_pass, [])],
    [(["check", "forms", "--graph", "1+u^2/8", "--space", "h3",
       "--graph-domain", "-1", "1", "-1", "1"], 0, _all_pass, [])],
    [(["check", "conformal", "ruled-6.7"], 0, _all_pass, [])],
    [(["check", "conformal", "control-bowl"], 0, _control_classes, [])],
    [(["pde", "residual", "--eq", "6.2", "--graph", "u*v/sqrt(1+v^2)",
       "--grid", "0.1:0.9:9x0.1:0.9:9"], 0, _pde_solution, [])],
    [(["pde", "residual", "--eq", "6.1", "--graph", "1+u^2+v^2",
       "--grid=-0.2:0.2:5x-0.2:0.2:5"], 1, _pde_control, [])],
    [(["dualize", "translational-6.6", "--fit-isometry"], 0, _dualize, [])],
    [(["weierstrass", "build", "--g", "builtin:z", "--case", "1", "--domain", DOMAIN,
       "--grid", "65", "--boundary", "builtin:radial", "--out", "{tmp}/surface.csv"],
      0, _build, ["surface.csv"]),
     (["export", "obj", "--in", "{tmp}/surface.csv", "--out", "{tmp}/surface.obj"],
      0, _export, ["surface.obj"])],
    [(["zoo", "sample", "no-such-family", "--u", "0:1:4", "--v", "0:1:4"],
      2, None, [])],
    [(["check", "forms", "--graph", "1+*u"], 2, None, [])],
    [(["weierstrass", "build", "--g", "builtin:z", "--case", "1", "--domain", DOMAIN,
       "--grid", "1", "--boundary", "builtin:radial"], 2, None, [])],
]


def span_name(argv):
    """Per-layer span of a command: cli.main.<subcommand>, or cli.export_obj."""
    if argv[0] == "export":
        return "cli.export_obj"
    if argv[0] == "dualize":
        return "cli.main.dualize"
    return f"cli.main.{argv[0]}_{argv[1]}"


class CliSession:
    name = "cli-session"

    def __init__(self, root, tmp, env):
        self.root = root
        self.tmp = tmp
        self.env = env
        self.out_bytes = 0

    def setup(self, tr):
        pass

    def items(self, rng):
        units = [SCRIPT[k] for k in rng.permutation(len(SCRIPT))]
        return [(" ".join(argv[:2]), self._command(argv, code, check, files))
                for unit in units for argv, code, check, files in unit]

    def extra_metrics(self):
        return {"cli.io.out_bytes": self.out_bytes}

    def _command(self, argv, expected_code, check, files):
        argv = [a.replace("{tmp}", self.tmp) for a in argv]

        def item(tr):
            outputs = [os.path.join(self.tmp, name) for name in files]
            for path in outputs:
                if os.path.exists(path):
                    os.remove(path)
            main_span = os.path.join(self.tmp, "main_span.txt")
            if tr.enabled:
                cmd = [sys.executable, os.path.join(self.root, "perfbench", "clichild.py"),
                       main_span, *argv]
            else:
                cmd = [sys.executable, "-m", "gaussform.cli", *argv]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=120)
            end = time.monotonic()
            if tr.enabled:
                with open(main_span) as fh:
                    m0, m1 = (float(t) for t in fh.read().split())
                tr.record("cli.startup", start, end - (m1 - m0))
                tr.record(span_name(argv), m0, m1, proc.returncode != 0)
            self.out_bytes += len(proc.stdout.encode())
            self.out_bytes += sum(os.path.getsize(path) for path in outputs
                                  if os.path.exists(path))
            if "Traceback" in proc.stderr:
                last = proc.stderr.strip().splitlines()[-1]
                raise Unexpected(f"exit {proc.returncode} with a traceback ({last})")
            if proc.returncode != expected_code:
                raise Unexpected(f"exit {proc.returncode}, expected {expected_code}")
            if proc.returncode in (0, 1):
                try:
                    report = json.loads(proc.stdout)
                except ValueError:
                    raise Unexpected("stdout is not a JSON report") from None
                if "schema_version" not in report:
                    raise Unexpected("report has no schema_version")
                if check is not None:
                    check(report, self.tmp)
        return item
