"""Every module-level function and class of the package has a caller outside
the tests.

A name counts as reached when the package or the benchmark harness mentions
it as a name, an attribute or an import anywhere but inside its own
definition; strings and docstrings do not count.  A helper that only tests
call belongs next to those tests (see ``oracles.py``), not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaussform"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree):
    """(name, enclosing top-level definition or None) for every mention."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name, owner
                if node.asname:
                    yield node.asname, owner


def test_every_package_definition_is_reached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    mentions = {path: set(_mentions(tree)) for path, tree in trees.items()}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in trees[path].body:
            if not isinstance(top, DEFINITIONS):
                continue
            if not any(name == top.name and (other != path or owner != top.name)
                       for other, found in mentions.items()
                       for name, owner in found):
                unreached.append(f"{path.stem}.{top.name}")
    assert not unreached, f"only tests reach: {', '.join(unreached)}"
