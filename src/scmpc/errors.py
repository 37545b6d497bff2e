"""Exception types and the scalar checks shared across the package."""

import math
import numbers
import sys


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


def real(value, name="value", above=-math.inf, minimum=-math.inf,
         maximum=math.inf) -> float:
    """value as a float if a real number (not a bool or a string) that is
    a finite float, above `above` and within [minimum, maximum], else
    ConfigError naming name."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, not {value!r}")
    for bad, bound in ((value <= above, f"above {above:g}"),
                       (value < minimum, f"at least {minimum:g}"),
                       (value > maximum, f"at most {maximum:g}")):
        if bad:
            raise ConfigError(f"{name} must be {bound}, not {value!r}")
    return float(value)


def flag(value, name="value") -> bool:
    """value if a bool, else ConfigError naming name."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, not {value!r}")
    return value
