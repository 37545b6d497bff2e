"""Kinematics of a two-wheeled differential-drive robot.

The wheel-level inputs, the unicycle model, the state of the
velocity-extended model driven by the feedback-linearizing controller,
and a classical RK4 integrator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, real

__all__ = [
    "RobotParams",
    "ExtendedState",
    "unicycle_to_wheel",
    "unicycle_rhs",
    "rk4_step",
]


@dataclass(frozen=True)
class RobotParams:
    """Drive geometry: wheel radius and axle length, meters."""

    wheel_radius: float = 0.1
    axle_length: float = 0.5

    def __post_init__(self):
        real(self.wheel_radius, "wheel_radius", above=0.0)
        real(self.axle_length, "axle_length", above=0.0)


@dataclass(frozen=True)
class ExtendedState:
    """Pose plus the integrator state zeta, the commanded forward speed."""

    x1: float
    x2: float
    x3: float
    zeta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.zeta])


def unicycle_to_wheel(u1: float, u2: float, p: RobotParams) -> tuple:
    """Right and left wheel rates (rad/s) that produce the unicycle input:
    forward velocity u1 (m/s) and turn rate u2 (rad/s).

    Inverts u1 = (r/2)(omega_r + omega_l), u2 = (r/d)(omega_r - omega_l).
    """
    r, d = p.wheel_radius, p.axle_length
    return u1 / r + d * u2 / (2.0 * r), u1 / r - d * u2 / (2.0 * r)


def unicycle_rhs(x, u):
    """Unicycle dynamics on a 3-sequence (x1, x2, heading), as a tuple."""
    u1, u2 = u
    return (u1 * math.cos(x[2]), u1 * math.sin(x[2]), u2)


def rk4_step(fn, state, u, ts: float) -> list:
    """One classical 4th-order Runge-Kutta step with the input held constant.

    The stages are combined entry by entry, in the order of the vector
    form: s + (ts/2) k for the midpoints and
    s + (ts/6) (((k1 + 2 k2) + 2 k3) + k4) for the step. Elementwise IEEE
    arithmetic is the same either way, so on floats the result equals the
    numpy array expression bit for bit. An entry may also be an array (a
    sensitivity of the variational equations); none is written into.

    Parameters
    ----------
    fn : callable
        Dynamics ``fn(state, u) -> derivative``; the state it receives is
        a list of n entries, and the derivative may be any sequence of n
        entries of the same shapes.
    state : sequence of float or ndarray
        Current state, n entries, each a float or an array.
    u : object
        Input, passed through unchanged to ``fn``.
    ts : float
        Step length, seconds. Must be positive.

    Returns
    -------
    list of float or ndarray
        The state after the step, entry by entry.
    """
    if not ts > 0.0:
        raise ConfigError("ts must be positive")
    half = 0.5 * ts
    k1 = fn(state, u)
    k2 = fn([s + half * k for s, k in zip(state, k1)], u)
    k3 = fn([s + half * k for s, k in zip(state, k2)], u)
    k4 = fn([s + ts * k for s, k in zip(state, k3)], u)
    sixth = ts / 6.0
    return [s + sixth * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
