"""Exception types shared across the package."""


class SpcaError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(SpcaError):
    """Input array is not a square two-dimensional matrix."""


class NonFiniteEntries(SpcaError):
    """Input contains NaN or infinite values."""


class AsymmetryExceedsTolerance(SpcaError):
    """Mirrored entries differ by ``delta``, more than ``tol = _SYMMETRY_RTOL * max |A_ij|``."""

    def __init__(self, i, j, delta, tol):
        super().__init__(
            f"entries ({i},{j}) and ({j},{i}) differ by {delta:.6e}, "
            f"exceeding tolerance {tol:.6e}"
        )
        self.i = i
        self.j = j
        self.delta = delta
        self.tol = tol


class NotPSD(SpcaError):
    """Matrix fails positive-semidefiniteness validation."""


class ConvergenceFailure(SpcaError):
    """An iterative eigensolver failed to converge."""


class InvalidRank(SpcaError):
    """Requested number of eigenpairs is out of range."""


class InvalidSupport(SpcaError):
    """Support index set is empty, repeated, or out of range."""


class EnumerationBudgetExceeded(SpcaError):
    """Exhaustive search would require more subproblems than the budget allows."""

    def __init__(self, required, budget):
        super().__init__(
            f"enumeration needs {required} subproblems, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class InvariantViolation(SpcaError):
    """A mathematically guaranteed internal invariant failed: a bug, not bad input."""


class DegenerateSolution(SpcaError):
    """Relaxation solution has no usable leading eigenpair."""


class NotPowerOfTwo(SpcaError):
    """Dimension must be a power of two."""


class DimensionNotDivisibleBy4(SpcaError):
    """Rotation schedule requires the dimension to be divisible by four."""


class ZeroVarianceColumn(SpcaError):
    """Correlation rescaling hit a column with zero variance."""


class InvalidKernelParams(SpcaError):
    """Kernel parameters are outside their valid range."""


class ParseError(SpcaError):
    """A matrix file failed to parse; carries line/column position."""

    def __init__(self, message, line, column=None):
        pos = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({pos})")
        self.line = line
        self.column = column


class DimensionMismatch(SpcaError):
    """Vector and matrix dimensions are incompatible."""


class NonConvergenceWarning(UserWarning):
    """Iterative preprocessing stopped before reaching its target tolerance."""


class NotPsdWarning(UserWarning):
    """A constructed matrix failed advisory PSD validation."""
