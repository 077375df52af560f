"""Exception types shared across the library."""


class Error(ValueError):
    """Base class for all input-validation errors raised by this package."""


class EmptyInput(Error):
    """No positive probability entry was supplied."""


class NegativeEntry(Error):
    """A probability entry was negative."""


class NotNormalized(Error):
    """Probabilities sum too far from 1 to be silently renormalized."""


class RankTooLargeForN(Error):
    """Building the requested tensor power would need more memory than the budget."""


class CountExceedsTotal(Error):
    """A spectrum query that the spectrum does not answer: a count past the
    entries that an incomplete spectrum holds, or a read of a column that was
    not built.  A complete spectrum clamps a count past its total instead."""


class InvalidDimension(Error):
    """Target dimension of a conversion must be a positive integer."""


class DimensionTooLargeForOracle(Error):
    """The brute-force oracle only handles small dimensions."""


class InvalidRange(Error):
    """Recovered copy count must satisfy 1 <= N <= n."""


class InvalidEpsilon(Error):
    """Error budget outside its admissible interval."""


class DegenerateVariance(Error):
    """Second-order quantities are undefined for flat or rank-one spectra."""


class OutOfDomain(Error):
    """Argument outside the mathematical domain of the function."""


class InvalidSpec(Error):
    """A figure specification is incomplete or inconsistent."""


class ParamError(Error):
    """Command-line parameters are missing or inconsistent for the requested action."""


class IoFailure(RuntimeError):
    """Reading or writing an output file failed."""
