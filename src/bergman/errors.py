"""Exception types shared across the toolkit."""


class BergmanError(Exception):
    """Base class for all toolkit errors."""


class PointOutsideDomain(BergmanError):
    """A point failed the (strict) membership test of a domain."""


class UnsupportedKind(BergmanError):
    """The requested operation is not available for this domain kind."""


class NonpositiveDiagonal(BergmanError):
    """K(z, z) evaluated to a nonpositive or nonfinite value."""


class UndeclaredAsymptotics(BergmanError):
    """A Reinhardt profile lacks the exponent data needed to classify a tail."""


class InvalidResolution(BergmanError):
    """Quadrature resolution parameters are out of range."""


class NonFiniteValue(BergmanError):
    """An integrand, symbol or result is NaN or infinite."""


class UnresolvedIntegral(BergmanError):
    """A quadrature rule and its refinement disagree beyond the stated tolerance."""


class BorderlineExponent(BergmanError):
    """A power-law exponent is too close to -1 to classify reliably."""


class InadmissibleIndex(BergmanError):
    """A monomial exponent pair is not square-integrable on the domain."""


class EpsilonOutOfRange(BergmanError):
    """The family parameter must lie in (0, 1]."""


class DuplicateEpsilon(BergmanError):
    """A list of family parameters repeats a value where each must be distinct."""
