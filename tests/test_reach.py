"""Every module-level function and class of the package, and every public
method of its classes, has a caller outside the tests, and every field
declared in a class body is read as an attribute outside the tests.

A name counts as reached when the package or the benchmark harness mentions
it as a name, an attribute or an import anywhere but inside its own
definition; strings and docstrings do not count.  Names are matched without
types, so a method is also reached by an attribute of the same name on
another object.  Dunder names are hooks the interpreter calls (``__init__``,
``__add__``, a module's ``__getattr__``) and are not checked.  Mentions
inside ``__str__`` and ``__repr__`` do not count: a helper that only the
printing hooks call serves whoever prints the object, and the package prints
none of its trees or records that way.  A helper that only tests call
belongs next to those tests (see ``oracles.py``), not in the package.  A field is read when the package or the benchmark harness names it
as an attribute; passing it to a constructor does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaussform"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
PRINTING_HOOKS = ("__str__", "__repr__")

# Fields kept although nothing reads them, with the reason.
UNREAD_FIELDS = {
    # perfbench/inproc.py passes a role as from_function's fourth positional
    # argument, and the benchmark harness keeps its calls.
    "weierstrass.ComplexField.role",
}


def _mentions(node, owners=()):
    """(name, enclosing definitions) for every mention below ``node``,
    except inside a printing hook."""
    if isinstance(node, DEFINITIONS):
        if node.name in PRINTING_HOOKS:
            return
        owners = owners + (node,)
    if isinstance(node, ast.Name):
        yield node.id, owners
    elif isinstance(node, ast.Attribute):
        yield node.attr, owners
    elif isinstance(node, ast.alias):
        yield node.name, owners
        if node.asname:
            yield node.asname, owners
    for child in ast.iter_child_nodes(node):
        yield from _mentions(child, owners)


def _checked(tree):
    """The module-level definitions and the public methods of its classes."""
    for top in tree.body:
        if not isinstance(top, DEFINITIONS):
            continue
        yield top.name, top
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                    yield f"{top.name}.{member.name}", member


def test_every_package_definition_is_reached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    mentions = [found for tree in trees.values() for found in _mentions(tree)]
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, node in _checked(trees[path]):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(name == node.name and node not in owners
                       for name, owners in mentions):
                unreached.append(f"{path.stem}.{label}")
    assert not unreached, f"only tests reach: {', '.join(unreached)}"


def test_every_package_field_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in trees[path].body:
            if not isinstance(top, ast.ClassDef):
                continue
            for member in top.body:
                if (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                        and member.target.id not in read):
                    unread.append(f"{path.stem}.{top.name}.{member.target.id}")
    assert set(unread) >= UNREAD_FIELDS, "an allowed field is read now, or gone"
    unread = [label for label in unread if label not in UNREAD_FIELDS]
    assert not unread, f"nothing reads: {', '.join(unread)}"
