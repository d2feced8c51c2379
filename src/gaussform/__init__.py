"""Fundamental forms, Gauss maps, and polar duality for surfaces in the
upper half-space models of hyperbolic and de Sitter 3-space.

The submodules load on first access (PEP 562), so a command imports only
what it uses: the point commands run without numpy.
"""

__all__ = ["ambient", "calculus", "duality", "errors", "forms", "gaussmaps",
           "weierstrass", "zoo"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        # The import statement's machinery, unlike importlib.import_module,
        # reports each submodule to -X importtime.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
