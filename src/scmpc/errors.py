"""Exception types and the integer check shared across the package."""

import numbers


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleError(RuntimeError):
    """A scenario is infeasible at its initial step."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


def integer(value, name="value", minimum=0) -> int:
    """value as an int if integral (not a bool) and at least minimum, else
    ConfigError naming name."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}")
    return int(value)
