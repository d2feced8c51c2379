"""Compare the reports of two source trees, command by command.

    python tools/report_diff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  The tool runs the same
``gaussform`` commands against each tree, every command in a fresh
interpreter with ``PYTHONPATH=<tree>/src`` and its own scratch directory:

* the ``cli-session`` script of ``perfbench/clisession.py``;
* ``check forms``, ``check conformal`` and ``dualize`` on every family that
  ``zoo list`` names in either tree;
* ``dualize --fit-isometry`` on the three families with a recorded partner;
* ``check forms`` at a point of a graph whose induced metric overflows;
* three ``weierstrass build`` commands that the others leave out, each
  given ``--out`` for its surface: the expression build of the
  exit-contract tests at ``--grid 9`` (exit 1, no surface to write), the
  radial build at 17² writing ``--out-g`` and ``--out-far`` too (exit 0),
  and a case-2 build at 17² (exit 1, no surface to write).

It compares exit codes, stderr, the files each command writes, byte for
byte, and the JSON on stdout, field by field.  A file whose bytes differ
has its changed cells tallied, or ``(bytes)`` when no cell changed.  A field is named by its JSON path with list
indices dropped (``points[].eta[]``); each changed field is printed with the
number of values that changed and the largest relative change
|a - b| / max(|a|, |b|) among them.  A value counts as changed when its JSON
text changes, so a flipped signed zero counts, with relative change 0.

Exit status: 1 when an exit code, stderr, a pass flag, a point status or a
``failures_by_kind`` count differs, or when only one tree writes a file; 0
otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from clisession import DOMAIN, SCRIPT  # noqa: E402

FIT_FAMILIES = ("translational-6.6", "ruled-6.7", "ruled-6.8")
BUILD = ["weierstrass", "build", "--domain", DOMAIN]
BUILD_UNITS = [
    [[*BUILD, "--g", "u+i*v", "--case", "1", "--boundary", "u", "--grid", "9",
      "--out", "{tmp}/surface.csv"]],
    [[*BUILD, "--g", "builtin:z", "--boundary", "builtin:radial", "--grid", "17",
      "--out", "{tmp}/surface.csv", "--out-g", "{tmp}/g.csv", "--out-far", "{tmp}/far.csv"]],
    [[*BUILD, "--g", "(u-i*v)/8", "--case", "2", "--boundary", "u-i*v", "--grid", "17",
      "--out", "{tmp}/surface.csv"]],
]
# A height of 1.6e-134 makes the determinant of the induced metric infinite.
OVERFLOW_UNITS = [[["check", "forms", "--graph=7.88e-134*v", "--at", "0.2,0.2"]]]
CONTRACT_KEYS = {"pass", "status", "failures_by_kind"}
MISSING = object()


def run_unit(tree, unit):
    """Run the commands of one unit in order in a fresh scratch directory.

    Returns one (exit code, stdout, stderr) per command, with the scratch
    path written as ``{tmp}``, and the bytes of each file the unit left behind.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in unit:
            proc = subprocess.run(
                [sys.executable, "-m", "gaussform.cli",
                 *(a.replace("{tmp}", tmp) for a in argv)],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
            results.append((proc.returncode, proc.stdout.replace(tmp, "{tmp}"),
                            proc.stderr.replace(tmp, "{tmp}")))
        files = {}
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
    return results, files


def family_keys(tree):
    (code, out, err), = run_unit(tree, [["zoo", "list"]])[0]
    if code != 0:
        sys.exit(f"zoo list failed in {tree}: {err.strip()}")
    return [fam["key"] for fam in json.loads(out)["families"]]


def command_units(families):
    units = [[argv for argv, *_ in unit] for unit in SCRIPT]
    for key in families:
        units += [[["check", "forms", key]], [["check", "conformal", key]],
                  [["dualize", key]]]
    units += [[["dualize", key, "--fit-isometry"]] for key in FIT_FAMILIES]
    units += BUILD_UNITS + OVERFLOW_UNITS
    seen, unique = set(), []
    for unit in units:
        name = tuple(map(tuple, unit))
        if name not in seen:
            seen.add(name)
            unique.append(unit)
    return unique


def flatten(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def relative_change(a, b):
    if isinstance(a, bool) or isinstance(b, bool) \
            or not all(isinstance(x, (int, float)) for x in (a, b)):
        return None
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


class Tally:
    """Changed fields: how many values changed, and the largest relative change."""

    def __init__(self):
        self.count = defaultdict(int)
        self.worst = {}

    def add(self, field, a, b):
        self.count[field] += 1
        rel = relative_change(a, b)
        if rel is not None and rel >= self.worst.get(field, -1.0):
            self.worst[field] = rel

    def lines(self):
        width = max(map(len, self.count), default=0)
        for field in sorted(self.count):
            rel = self.worst.get(field)
            shown = "non-numeric" if rel is None else f"{rel:.2e}"
            yield f"  {field:<{width}}  {self.count[field]:>6}  {shown}"


def compare_json(a, b, tally):
    """Tally the changed fields; return those that belong to the exit contract."""
    fa, fb = dict(flatten(a)), dict(flatten(b))
    contract = set()
    for path in list(fa) + [p for p in fb if p not in fa]:
        va, vb = fa.get(path, MISSING), fb.get(path, MISSING)
        if va is not MISSING and vb is not MISSING and json.dumps(va) == json.dumps(vb):
            continue
        field = re.sub(r"\[\d+\]", "[]", path)
        if va is MISSING or vb is MISSING:
            field += " (present on one side only)"
        tally.add(field, None if va is MISSING else va, None if vb is MISSING else vb)
        if CONTRACT_KEYS & set(re.split(r"[.\[\]]+", path)):
            contract.add(field)
    return contract


def compare_file(name, a, b, tally):
    """Tally the changed cells of a written CSV or OBJ file, column by column."""
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        tally.add(f"{name} (line count)", len(la), len(lb))
        return
    for ra, rb in zip(la, lb):
        ca, cb = re.split(r"[,\s]+", ra.strip()), re.split(r"[,\s]+", rb.strip())
        if len(ca) != len(cb):
            tally.add(f"{name} (cell count)", len(ca), len(cb))
            continue
        for j, (x, y) in enumerate(zip(ca, cb)):
            if x != y:
                try:
                    x, y = float(x), float(y)
                except ValueError:
                    pass
                tally.add(f"{name} column {j}", x, y)


def parse_report(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = argv
    families = sorted(set(family_keys(parent)) | set(family_keys(change)))
    units = command_units(families)
    tally, problems = Tally(), []
    commands = identical = 0
    for unit in units:
        (res_a, files_a), (res_b, files_b) = run_unit(parent, unit), run_unit(change, unit)
        for argv_, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(unit, res_a, res_b):
            name = " ".join(argv_)
            commands += 1
            if (code_a, out_a, err_a) == (code_b, out_b, err_b):
                identical += 1
            if code_a != code_b:
                problems.append(f"{name}: exit code {code_a} -> {code_b}")
            if err_a != err_b:
                problems.append(f"{name}: stderr differs")
            if out_a == out_b:
                continue
            rep_a, rep_b = parse_report(out_a), parse_report(out_b)
            if rep_a is None or rep_b is None:
                tally.add("stdout (not JSON)", out_a, out_b)
                continue
            for field in sorted(compare_json(rep_a, rep_b, tally)):
                problems.append(f"{name}: {field} differs")
        for fname in sorted(set(files_a) | set(files_b)):
            a, b = files_a.get(fname), files_b.get(fname)
            if a is None or b is None:
                problems.append(f"{' && '.join(map(' '.join, unit))}: "
                                f"{fname} written on one side only")
            elif a != b:
                cells = sum(tally.count.values())
                compare_file(fname, a.decode(errors="replace"), b.decode(errors="replace"),
                             tally)
                if sum(tally.count.values()) == cells:
                    tally.add(f"{fname} (bytes)", None, None)

    print(f"{commands} commands per tree, {identical} with identical exit code, "
          f"stdout and stderr")
    if tally.count:
        print("changed fields (values changed, largest relative change):")
        for line in tally.lines():
            print(line)
    else:
        print("no field changed")
    if problems:
        print("contract differences:")
        for line in problems:
            print(f"  {line}")
        return 1
    print("exit codes, stderr, pass flags, point statuses and failure counts are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
