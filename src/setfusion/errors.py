"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """An API usage rule was violated (stale gradients, frozen parameters, ...)."""


class NumericError(ArithmeticError):
    """A computation produced NaN or Inf from finite inputs."""


class DataFormatError(ValueError):
    """A dataset or checkpoint container could not be encoded or decoded."""


class ConfigError(ValueError):
    """A run configuration file is missing keys or contains invalid values."""
