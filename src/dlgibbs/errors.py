"""Exception and warning types shared across the package.

Every raised condition has a named class so callers (and the CLI harness)
can match on type rather than message text.  Messages carry the offending
values; validation failures are raised before any expensive work.
"""

from __future__ import annotations


class DlGibbsError(Exception):
    """Base class for all package errors."""


class NotHermitian(DlGibbsError):
    """Input matrix expected Hermitian exceeds the hermiticity tolerance."""


class NoConvergence(DlGibbsError):
    """An iterative numerical routine failed to converge."""


class OverflowDetected(DlGibbsError):
    """A computation would overflow or underflow double precision."""


class DimensionMismatch(DlGibbsError):
    """Array shapes are inconsistent with each other or not square."""


class BadDimensionFactorization(DlGibbsError):
    """A dimension does not factor as the requested tensor product."""


class SupportOutOfRange(DlGibbsError):
    """A local operator's support names qubits outside the register."""


class UnknownKind(DlGibbsError):
    """An unrecognized kind/preset name was requested."""


class BadParams(DlGibbsError):
    """Parameters fail a precondition (range, sign, consistency)."""


class DegenerateGap(DlGibbsError):
    """A spectral gap required to be positive is zero within tolerance."""


class SingularSigma(DlGibbsError):
    """The stationary state is singular or too close to singular."""


class NotDetailedBalanced(DlGibbsError):
    """A generator fails the detailed-balance self-adjointness test."""


class NotLocal(DlGibbsError):
    """An operator differs from the identity off the support it is built on."""


class PositiveEigenvalue(DlGibbsError):
    """A generator expected nonpositive has an eigenvalue above tolerance."""


class BadGamma(DlGibbsError):
    """A gap parameter is outside its admissible open interval."""


class BadEps(DlGibbsError):
    """An error target is outside its admissible range."""


class InsufficientSpread(DlGibbsError):
    """A fit was requested on data spanning too narrow a range."""


class FrustrationDetected(DlGibbsError):
    """A Hamiltonian expected frustration-free is not."""


class OverlapTooSmall(DlGibbsError):
    """Consecutive states overlap too weakly for a reliable transition."""


class RankAmbiguous(DlGibbsError):
    """The dominant singular value is not cleanly separated."""


class BadAlpha(DlGibbsError):
    """A schedule density parameter is not positive."""


class BadInputs(DlGibbsError):
    """Resource-estimate inputs are outside their admissible ranges."""


class ParseError(DlGibbsError):
    """A config file line cannot be parsed; message includes the line number."""


class UnknownKey(DlGibbsError):
    """A config key is not in the schema for its section."""


class MissingKey(DlGibbsError):
    """A required config key is absent."""


class PositivityFailure(DlGibbsError):
    """A matrix expected positive semidefinite has a negative eigenvalue."""


class IrreducibilityWarning(UserWarning):
    """The generator's stationary space has dimension above one."""


class DegenerateGapWarning(UserWarning):
    """A ground space is degenerate within tolerance; results may be unstable."""
