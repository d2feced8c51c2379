"""Exception hierarchy shared by all gaussform modules."""


class GaussformError(Exception):
    """Base class for every error raised by this package."""


# -- ambient ---------------------------------------------------------------

class NonPositiveHeight(GaussformError):
    """Point left the upper half-space (last coordinate <= 0)."""


class QuadricViolation(GaussformError):
    """Coordinates do not satisfy their quadric equation within tolerance."""


# -- calculus (expressions and jets) ---------------------------------------

class ParseError(GaussformError):
    """Expression text could not be parsed.

    Carries the byte offset of the failure and the set of tokens that would
    have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class DomainError(GaussformError):
    """Expression evaluated outside its real domain (log of nonpositive, etc.)."""


class EvaluationError(GaussformError):
    """Expression produced a non-finite value."""


class OutsideDomain(GaussformError):
    """Parameter point is not interior to the chart's rectangle."""


class NonImmersed(GaussformError):
    """First partials are metrically degenerate at the requested point."""


class HeightViolation(GaussformError):
    """Evaluated surface point has nonpositive height."""


# -- forms -----------------------------------------------------------------

class WrongCausalClass(GaussformError):
    """Signature of the induced metric contradicts the declared causal class."""


class OrientationUndefined(GaussformError):
    """Normal orientation tie-break needed at a point with vanishing last
    normal component and no override supplied."""


# -- gaussmaps -------------------------------------------------------------

class InfiniteG(GaussformError):
    """Far Gauss map undefined: the normal geodesic ends at infinity."""


# -- duality ---------------------------------------------------------------

class EquatorialNormal(GaussformError):
    """Dual point would fall on the degenerate set (normal has eta_3 = 0)."""


class BranchPoint(GaussformError):
    """Curvature transfer requested exactly at a branch point."""


class CausalityViolation(GaussformError):
    """Graph gradient violates the causal constraint of the requested duality."""


# -- zoo -------------------------------------------------------------------

class UnknownFamily(GaussformError):
    """No registered surface family under that name."""


class ParamConstraint(GaussformError):
    """Family parameters violate a stated constraint."""


class DomainConstraint(GaussformError):
    """Requested parameter rectangle leaves the family's valid region."""


# -- weierstrass -----------------------------------------------------------

class ConstraintViolation(GaussformError):
    """Field violates its modulus constraint."""


class SingularSystem(GaussformError):
    """The far-map solve reached its iteration cap; carries its iterations and residual."""

    def __init__(self, message, iterations, residual):
        super().__init__(f"{message}: residual {residual:.3e} after {iterations} iterations")
        self.iterations, self.residual = iterations, residual


class NonRealHeight(GaussformError):
    """Kept sample produced a height with too large an imaginary part."""


class EmptyOutput(GaussformError):
    """Every sample of a built surface was dropped."""


class DegenerateInput(GaussformError):
    """Field data is constant where the construction needs a nonconstant map."""


# -- cli / io --------------------------------------------------------------

class EmptyGrid(GaussformError):
    """Mesh export requested for an empty sample grid."""
