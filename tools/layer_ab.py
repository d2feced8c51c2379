"""Time the point-path layers of two source trees, side by side.

    python tools/layer_ab.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  Each of ROUNDS rounds starts
one fresh interpreter per tree, with ``PYTHONPATH=<tree>/src``; the parent
runs first in rounds 1, 3, 5, ... and the change first in the others.  Each
interpreter times these layers on fixed inputs, one warm-up pass and then
REPEAT timed passes, and reports the best pass in microseconds per call:

* ``forms_at``, ``polar_variety`` and ``polar_position``, and ``forms_at`` on
  ``polar_chart``, at a 4 x 4 grid of points (10 % margins) on each of
  POLAR_FAMILIES;
* ``polar_of_polar_minkowski`` at the same points;
* ``fit_family_pairing`` on the three families with a recorded partner
  (100 points, seed 0), and three of its parts on the same families:
  ``make_surface`` (the chart build with its domain scan, the chart memo
  cleared before each call on a tree that has one), ``polar_cloud``
  (``polar_positions`` at the pairing's 100 points) and ``fit_isometry``
  (the fits under every sign choice of the pairing, on the pairing's cloud
  of polar points);
* ``graph_duality_residual`` at the same grid of points on each graph
  family of criterion 5 (GRAPH_DUALITY), in its direction;
* ``radial_test_pair`` (the radial profile and both fields) on the domain
  and the 129 x 129 grid of the ``weierstrass-solve`` benchmark workload;
* ``recovered_gauss_map`` on the surface built from the radial problem at
  65 x 65 on that domain (solved and built beforehand);
* ``solve_far_map`` on that domain: the radial problem at 33 x 33, 65 x 65
  and 129 x 129 (``solve_radial_<n>``), and g = conj(z)/8 (case 2, boundary
  data z) at 129 x 129 (``solve_conj8_129``), the fields built beforehand.

A call that raises a classified error is timed like any other; the
results themselves are compared by ``tools/report_diff.py`` and the tests,
not here.  The JSON on stdout has, per layer, every process's value for
each side, the two medians, their ratio (change over parent) and the
number of rounds the change won, in the layer shape of the ``BENCH_*.json``
files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

POLAR_FAMILIES = ("translational-6.6", "ruled-6.7", "ruled-6.8", "ruled-7.4-3",
                  "ruled-7.4-4", "translational-6.3", "corollary-6", "control-bowl")
FIT_FAMILIES = ("translational-6.6", "ruled-6.7", "ruled-6.8")
GRAPH_DUALITY = (("horosphere", "h3-to-ds3"), ("equidistant-plane", "h3-to-ds3"),
                 ("translational-6.3", "ds3-to-h3"), ("translational-6.3-minus", "ds3-to-h3"),
                 ("corollary-6", "ds3-to-h3"), ("translational-7.3-1-plus", "ds3-timelike"),
                 ("translational-7.3-2-plus", "ds3-timelike"),
                 ("corollary-7-plus", "ds3-timelike"), ("flaherty-plus", "ds3-timelike"))
RECOVERY_GRID = 65
RADIAL_DOMAIN = (1.5, 2.5, 0.1, 0.9)     # perfbench/inproc.py's DOMAIN
RADIAL_GRID = (129, 129)
SOLVE_GRIDS = (33, 65, 129)
GRID = 4
ROUNDS = 10
REPEAT = 5
LAYERS = ("forms_at", "polar_variety", "polar_position", "polar_forms",
          "polar_of_polar_minkowski", "fit_family_pairing", "make_surface",
          "polar_cloud", "fit_isometry", "graph_duality_residual", "radial_test_pair",
          "recovered_gauss_map",
          *(f"solve_radial_{n}" for n in SOLVE_GRIDS), "solve_conj8_129")


def layer_calls():
    """{layer: [zero-argument calls]} on the fixed inputs."""
    from gaussform import duality, forms, weierstrass, zoo
    from gaussform.errors import GaussformError

    def guarded(fn, *args, **kwargs):
        def call():
            try:
                fn(*args, **kwargs)
            except GaussformError:
                pass
        return call

    def grid_points(chart):
        u0, u1, v0, v1 = chart.domain
        return [(u0 + (u1 - u0) * (0.1 + 0.8 * i / (GRID - 1)),
                 v0 + (v1 - v0) * (0.1 + 0.8 * j / (GRID - 1)))
                for i in range(GRID) for j in range(GRID)]

    calls = {name: [] for name in LAYERS}
    for key in POLAR_FAMILIES:
        chart = zoo.make_surface(key)
        dual = duality.polar_chart(chart)
        for p in grid_points(chart):
            calls["forms_at"].append(guarded(forms.forms_at, chart, p))
            calls["polar_variety"].append(guarded(duality.polar_variety, chart, p))
            calls["polar_position"].append(guarded(duality.polar_position, chart, p))
            calls["polar_forms"].append(guarded(forms.forms_at, dual, p))
            calls["polar_of_polar_minkowski"].append(
                guarded(duality.polar_of_polar_minkowski, chart, p))
    for key, direction in GRAPH_DUALITY:
        expr = zoo.family_graph_expr(key)
        calls["graph_duality_residual"] += [
            guarded(duality.graph_duality_residual, expr, p, direction)
            for p in grid_points(zoo.make_surface(key))]
    calls["fit_family_pairing"] = [
        guarded(duality.fit_family_pairing, key, count=100, seed=0) for key in FIT_FAMILIES]
    memo = getattr(zoo, "_build", None)     # the chart memo, where the tree has one

    def build_unkept(key):
        if memo is not None:
            memo.cache_clear()
        zoo.make_surface(key)
    calls["make_surface"] = [guarded(build_unkept, key) for key in FIT_FAMILIES]
    calls["polar_cloud"] = [guarded(duality.polar_positions, *fit_cloud_points(key))
                            for key in FIT_FAMILIES]
    calls["fit_isometry"] = [guarded(fit_all_signs(key)) for key in FIT_FAMILIES]
    calls["radial_test_pair"] = [
        guarded(weierstrass.radial_test_pair, RADIAL_DOMAIN, RADIAL_GRID)]
    for n in SOLVE_GRIDS:
        g, exact = weierstrass.radial_test_pair(RADIAL_DOMAIN, (n, n))
        calls[f"solve_radial_{n}"] = [guarded(weierstrass.solve_far_map, g, exact.values)]
        if n == RECOVERY_GRID:
            built = weierstrass.build_surface(
                g, weierstrass.solve_far_map(g, exact.values), im_tol=1e-2)
            calls["recovered_gauss_map"] = [guarded(weierstrass.recovered_gauss_map, built)]
    g = weierstrass.ComplexField.from_function(lambda z: z.conjugate() / 8.0, RADIAL_DOMAIN,
                                               RADIAL_GRID, weierstrass.ROLE_NORMAL_MAP)
    calls["solve_conj8_129"] = [guarded(weierstrass.solve_far_map, g, lambda z: z,
                                        weierstrass.CASE_ANTIHOLOMORPHIC)]
    return calls


def fit_cloud_points(key):
    """The chart and the 100 parameter points of
    ``fit_family_pairing(key, count=100, seed=0)``."""
    import numpy as np
    from gaussform import zoo

    chart = zoo.make_surface(key)
    return chart, chart.interior_points(100, np.random.default_rng(0), margin_frac=0.1)


def fit_all_signs(key):
    """The fits of ``fit_family_pairing(key, count=100, seed=0)``, one per
    sign choice, on its cloud, which is built once (before timing)."""
    import numpy as np
    from gaussform import duality, zoo

    builder, sign_choices = duality.PAIRINGS[key]
    chart, points = fit_cloud_points(key)
    params = zoo.resolve_params(zoo.get_family(key), None)
    pts = np.array([duality.polar_position(chart, p).coords for p in points])
    heights = [builder(params, s1, s2) for s1, s2 in sign_choices]
    return lambda: [duality.fit_isometry(pts, height) for height in heights]


def child():
    """Print {layer: best microseconds per call} for the tree on sys.path."""
    def one_pass(calls):
        start = time.perf_counter()
        for call in calls:
            call()
        return time.perf_counter() - start

    result = {}
    for name, calls in layer_calls().items():
        one_pass(calls)
        result[name] = min(one_pass(calls) for _ in range(REPEAT)) / len(calls) * 1e6
    print(json.dumps(result))


def run_tree(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.exit(f"layer run failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    if args.parent is None or args.change is None:
        parser.error("give PARENT_TREE and CHANGE_TREE")
    runs = {"parent": [], "change": []}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_tree(getattr(args, side)))
            print(f"round {r + 1}/{ROUNDS}: {side} done", file=sys.stderr)
    layers = {}
    for name in LAYERS:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        p50, c50 = statistics.median(parent), statistics.median(change)
        layers[name] = {"parent": parent, "change": change,
                        "parent_median": p50, "change_median": c50,
                        "ratio": c50 / p50,
                        "change_wins": sum(c < p for p, c in zip(parent, change)),
                        "pairs": ROUNDS}
    print(json.dumps({
        "what": (f"in-process wall time per call, best of {REPEAT} passes after "
                 f"one warm-up pass, per fresh process; {ROUNDS} alternating "
                 "rounds, parent first in rounds 1, 3, 5, ...; values in microseconds"),
        "us": layers}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
