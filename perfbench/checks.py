"""Outcome classes and the acceptance tolerances every item is checked against."""

# The acceptance tolerances of the gaussform test suite and CLI.
TOL = {
    "obata": 1e-9,
    "k_relation": 1e-9,
    "rho_formula": 1e-8,
    "transfer": 1e-8,
    "double_polarity": 1e-8,
    "dual_conformal": 1e-6,       # conformality test tolerance on polar charts
    "graph_duality": 1e-6,
    "isometry_fit": 1e-6,
    "fit_angle": 1e-9,
    "graph_pde": 1e-10,
    "discrete": 1e-10,
    "identity": 1e-10,
    "recovery_33": 3e-2,
    "fourth_form_direct": 1e-4,   # relative to max(1, |IV|)
    "brioschi": 1e-3,
}


class Incorrect(Exception):
    """An output breached its tolerance or has the wrong class."""


class Unexpected(Exception):
    """The outcome differs from the contract: a wrong or missing exception,
    a wrong exit code, unparsable output or a traceback."""


def within(what, value, tol_key):
    tol = TOL[tol_key]
    if not value <= tol:
        raise Incorrect(f"{what} {value:.3e} exceeds {tol:.0e}")


def expect_error(exc_class, fn, *args, **kwargs):
    """Run fn and require that it raises exc_class itself, not a subclass."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        if type(exc) is exc_class:
            return
        raise Unexpected(f"expected {exc_class.__name__}, got "
                         f"{type(exc).__name__}: {exc}") from None
    raise Unexpected(f"expected {exc_class.__name__}, the call returned")
