"""Exception types shared across harperlab."""


class HarperlabError(Exception):
    """Base class for all harperlab errors."""


class PrecisionExhausted(HarperlabError):
    """Continued-fraction expansion cannot certify the next digit.

    Carries the digits that were certified before precision ran out.
    """

    def __init__(self, message, digits=()):
        super().__init__(message)
        self.digits = list(digits)


class RationalDetected(PrecisionExhausted):
    """Input is, to working precision, a rational number.

    The final certified digit (the one completing the rational) is included
    in ``digits``.
    """


class DepthInsufficient(HarperlabError):
    """A digit stream ended before the requested convergent depth."""


class InvalidCoupling(HarperlabError):
    """Coupling triple violates the admissible-parameter constraints."""


class Lambda2Zero(HarperlabError):
    """Duality map is undefined because lambda2 = 0."""


class WindowEmpty(HarperlabError):
    """Truncation window [x1, x2] has x1 > x2."""


class ResolventSingular(HarperlabError):
    """Energy is (numerically) an eigenvalue of the truncated operator."""


class SingularSamplingPoint(HarperlabError):
    """A cocycle was evaluated too close to a zero of the off-diagonal c.

    Attributes: ``theta`` (offending phase), ``distance`` (circle distance
    to the nearest zero).
    """

    def __init__(self, theta, distance):
        super().__init__(
            f"sampling point theta={theta!r} lies {distance:.3e} from a zero of c"
        )
        self.theta = theta
        self.distance = distance


class TooManyExclusions(HarperlabError):
    """More than the tolerated fraction of grid points hit the zero guard."""


class FloatRangeExceeded(HarperlabError):
    """A transfer product or a badness window mass left the float64 range."""


class BranchAmbiguity(HarperlabError):
    """A rotation-number lift increment landed on the branch-cut boundary."""


class GridTooCoarse(HarperlabError):
    """Degree computation could not stabilize under grid refinement."""


class ResonantDivisor(HarperlabError):
    """Small divisor e^(2 pi i k alpha) - 1 vanishes at mode ``k``."""

    def __init__(self, k, message=None):
        super().__init__(message or f"resonant divisor at Fourier mode k={k}")
        self.k = k


class DivisorFloorViolated(HarperlabError):
    """Commutant divisor dropped below its Diophantine floor at mode ``k``."""

    def __init__(self, k, divisor, floor):
        super().__init__(
            f"divisor {divisor:.3e} below floor {floor:.3e} at mode k={k}"
        )
        self.k = k
        self.divisor = divisor
        self.floor = floor


class WindowTooLarge(HarperlabError):
    """A truncation window's eigenvectors and solver workspace do not fit in memory."""


class NoBulkSpectrum(HarperlabError):
    """Every eigenvalue of a duality window was filtered as a boundary mode."""


class PoorlyLocalized(HarperlabError):
    """Eigenvector decay fit failed the r^2 quality threshold."""
