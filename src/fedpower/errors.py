"""Exception types shared across the package."""


class FedPowerError(Exception):
    """Base class for all package-specific errors."""


class RankDeficient(FedPowerError):
    """A matrix expected to have full column rank does not."""


class ConvergenceFailure(FedPowerError):
    """A dense factorization routine failed to converge."""


class DimensionMismatch(FedPowerError):
    """Operands have incompatible shapes."""


class InvalidBudget(FedPowerError):
    """A privacy budget is unusable (bad epsilon/delta, or a noise formula
    would need the logarithm of a value <= 1)."""


class ParseError(FedPowerError):
    """A dataset file could not be parsed.

    Carries the 1-based line number and the byte offset of the offending line.
    """

    def __init__(self, message, line=None, offset=None):
        detail = message
        if line is not None:
            detail = f"{message} (line {line}, byte offset {offset})"
        super().__init__(detail)
        self.line = line
        self.offset = offset


class IndexOutOfRange(FedPowerError):
    """A feature index exceeds the declared column count."""


class TooManyShards(FedPowerError):
    """More shards requested than there are rows to distribute."""


class DegenerateData(FedPowerError):
    """The dataset is degenerate for the requested diagnostic (e.g. an
    all-zero second-moment matrix)."""


class ConfigError(FedPowerError, ValueError):
    """An unknown config key, a mistyped config value, or a bad thread count."""


class NonFinite(FedPowerError, ValueError):
    """An array that must be finite (an iterate, an aggregate, or an SVD
    input) holds NaN or infinity."""
