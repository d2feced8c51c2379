"""gaussform benchmark: one closed-loop workload per run, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload forms-grid --seed 1 --seconds 20 --trace 0

The run times a set-up phase, runs one untimed warm-up pass, then runs whole
passes of items until ``--seconds`` have elapsed.  Every item's outcome is
checked.  A JSON line of details and provenance precedes the result, the
last line of stdout: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  perfbench/README.md describes both.
"""

import os

# Pin the math libraries to one thread, for this process and its children,
# before numpy is imported.
THREAD_ENV = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from checks import Incorrect  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("forms-grid", "polar-duality", "weierstrass-solve", "cli-session")
SETUP_PROBES = 5
TAIL_WINDOW = 500

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
              "item_tail_ms": "ms", "pass_ratio": "ratio", "peak_rss_mb": "MB"}

# Spans timed around public calls, by layer.  Every traced run reports
# calls, busy_s and p50_us for each; spans that can fail also report failed.
SPANS = {
    "calculus": ["parse_graph_expr", "jet2_eval"],
    "zoo": ["make_surface", "family_graph_expr", "graph_pde_residual"],
    "forms": ["fundamental_forms", "conformality_test", "residuals",
              "fourth_form_direct", "intrinsic_gauss_curvature"],
    "gaussmaps": ["gauss_data"],
    "duality": ["polar_chart", "polar_variety", "polar_forms",
                "polar_of_polar_minkowski", "graph_duality_residual",
                "fit_family_pairing"],
    "weierstrass": ["radial_test_pair", "ComplexField.from_function",
                    "solve_far_map.n33", "solve_far_map.n65", "solve_far_map.n129",
                    "compatibility_residual_field", "build_surface",
                    "surface_identity_defect", "recovered_gauss_map"],
    "cli": ["startup", "main.zoo_list", "main.zoo_sample", "main.check_forms",
            "main.check_conformal", "main.pde_residual", "main.dualize",
            "main.weierstrass_build", "export_obj"],
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns]
FAILABLE = ["calculus.jet2_eval", "forms.fundamental_forms",
            "forms.intrinsic_gauss_curvature", "gaussmaps.gauss_data",
            "weierstrass.build_surface", "cli.main.zoo_sample",
            "cli.main.check_forms", "cli.main.pde_residual",
            "cli.main.weierstrass_build"]
EXTRA_LAYER = {"weierstrass.build_surface.kept_ratio": "ratio",
               "weierstrass.recovered_gauss_map.mask_ratio": "ratio",
               "cli.io.out_bytes": "bytes"}
BENCH_LAYER = {"bench.item.calls": "count", "bench.item.busy_s": "s",
               "bench.item.self_s": "s", "bench.items_per_s_untraced": "1/s",
               "bench.items_per_s_traced": "1/s", "bench.trace_overhead": "ratio"}
STAT_UNITS = {"calls": "count", "failed": "count", "busy_s": "s", "p50_us": "us"}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span in SPAN_NAMES:
        for stat in STAT_UNITS:
            if stat != "failed" or span in FAILABLE:
                names[f"{span}.{stat}"] = STAT_UNITS[stat]
    names.update(EXTRA_LAYER)
    names.update(BENCH_LAYER)
    return names


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def make_workload(name, tmp):
    if name == "cli-session":
        from clisession import CliSession
        return CliSession(ROOT, tmp, child_env())
    import inproc
    return {"forms-grid": inproc.FormsGrid, "polar-duality": inproc.PolarDuality,
            "weierstrass-solve": inproc.WeierstrassSolve}[name]()


def setup_probe(name):
    """Child side of a set-up measurement: build the inputs, print the clock."""
    make_workload(name, None).setup(NullTracer())
    print(repr(time.monotonic()))


def measure_setup(name):
    """Seconds from starting a fresh interpreter until the inputs are built.

    For cli-session the inputs are the imports of ``gaussform.cli``.  The
    clock is CLOCK_MONOTONIC, which parent and child share.
    """
    if name == "cli-session":
        cmd = [sys.executable, "-c",
               "import time, gaussform.cli; print(repr(time.monotonic()))"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def provenance(seed):
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gaussform")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fh.read())
    return {"seed": seed, "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "threads_env": THREAD_ENV}


class Run:
    """Outcome and latency bookkeeping for the timed passes."""

    def __init__(self):
        self.pass_latencies = []      # seconds per item, one list per untraced pass
        self.pass_stats = {False: [0, 0.0], True: [0, 0.0]}   # items, wall s
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.notes = []

    def run_pass(self, items, tr, counted=True):
        start = time.perf_counter()
        latencies = []
        for k, (label, fn) in enumerate(items):
            tr.begin_item(k)
            t0 = time.perf_counter()
            bad = None
            try:
                fn(tr)
            except Incorrect as exc:
                self.incorrect += 1
                bad = exc
            except Exception as exc:      # counted and reported, never fatal
                bad = exc
            t1 = time.perf_counter()
            tr.end_item(bad is not None)
            if not counted:
                continue
            self.attempted += 1
            if bad is not None:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(f"{label}: {type(bad).__name__}: {bad}")
            latencies.append(t1 - t0)
        if not counted:
            return
        if not tr.enabled:
            self.pass_latencies.append(latencies)
        stats = self.pass_stats[tr.enabled]
        stats[0] += len(items)
        stats[1] += time.perf_counter() - start

    def items_per_s(self, traced):
        items, wall = self.pass_stats[traced]
        return items / wall if wall else 0.0


def tail(pass_latencies):
    """Tail latency: (value, percentile, window size).

    Consecutive whole passes are grouped into windows of at least
    TAIL_WINDOW items; a shorter remainder joins the last window.  In each
    window the tail is the highest percentile with at least 10 samples beyond
    it, and the result is the median over windows.  Over a whole run of many
    short items that percentile would sit in the last ten or so items, which
    on a shared machine are scheduler stalls rather than the program.
    """
    windows = [[]]
    for lat in pass_latencies:
        if len(windows[-1]) >= TAIL_WINDOW:
            windows.append([])
        windows[-1].extend(lat)
    if len(windows) > 1 and len(windows[-1]) < TAIL_WINDOW:
        windows[-2].extend(windows.pop())
    values, pcts = [], []
    for window in windows:
        ordered = sorted(window)
        n = len(ordered)
        k = n - 11 if n > 10 else n - 1
        values.append(ordered[k])
        pcts.append(100.0 * (k + 1) / n)
    return (statistics.median(values), statistics.median(pcts),
            statistics.median(len(w) for w in windows))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gaussform", "__init__.py")):
        print(f"error: no gaussform sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import numpy as np

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        setups = [measure_setup(args.workload) for _ in range(SETUP_PROBES)]
        null = NullTracer()
        tracer = Tracer() if args.trace else null
        workload = make_workload(args.workload, tmp)
        workload.setup(tracer)
        run = Run()
        # Untimed warm-up pass on its own inputs.  cli-session has none: each
        # command is a fresh interpreter, warmed by the set-up probes above.
        if args.workload != "cli-session":
            run.run_pass(workload.items(np.random.default_rng([args.seed, 1])),
                         null, counted=False)
        rng = np.random.default_rng(args.seed)
        start = time.perf_counter()
        passes = 0
        # Whole passes until the time is up; a traced run alternates untraced
        # and traced passes and runs at least one of each.
        while (time.perf_counter() - start < args.seconds
               or (args.trace and passes < 2)):
            traced = bool(args.trace and passes % 2)
            run.run_pass(workload.items(rng), tracer if traced else null)
            passes += 1
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" \
            else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        extra = getattr(workload, "extra_metrics", dict)()
        if args.trace:
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    latencies = [t for lat in run.pass_latencies for t in lat]
    tail_value, tail_pct, tail_window = tail(run.pass_latencies)
    info = {
        "workload": args.workload, "passes": passes,
        "fail_ratio": run.failed / run.attempted,
        "item_tail_percentile": tail_pct,
        "item_tail_window": tail_window,
        "item_samples": len(latencies),
        "setup_probes_s": setups,
        "items_per_s_untraced": run.items_per_s(False),
        "failures": run.notes,
        "provenance": provenance(args.seed),
    }
    if args.trace:
        metrics = {}
        agg = tracer.aggregate(SPAN_NAMES + [tracer.ITEM])
        for name in SPAN_NAMES:
            for stat, value in agg[name].items():
                metrics[f"{name}.{stat}"] = value
        for name in EXTRA_LAYER:
            metrics[name] = extra.get(name, 0)
        item = agg[tracer.ITEM]
        traced_ips = run.items_per_s(True)
        metrics.update({
            "bench.item.calls": item["calls"], "bench.item.busy_s": item["busy_s"],
            "bench.item.self_s": item["self_s"],
            "bench.items_per_s_untraced": run.items_per_s(False),
            "bench.items_per_s_traced": traced_ips,
            "bench.trace_overhead": run.items_per_s(False) / traced_ips - 1.0,
        })
        units = per_layer_names()
        layer_busy = {layer: sum(agg[f"{layer}.{fn}"]["busy_s"] for fn in fns)
                      for layer, fns in SPANS.items()}
        total = sum(layer_busy.values()) or 1.0
        info["layer_busy_share"] = {k: v / total for k, v in layer_busy.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": run.items_per_s(False),
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_tail_ms": tail_value * 1e3,
            "pass_ratio": (run.attempted - run.failed) / run.attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print(json.dumps({"details": info}))
    print(json.dumps({
        "correct": run.incorrect == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
