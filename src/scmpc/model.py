"""Kinematics of a two-wheeled differential-drive robot.

The wheel-level inputs, the unicycle model, and the velocity-extended
model driven by the feedback-linearizing controller, plus a classical RK4
integrator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "RobotParams",
    "WheelSpeeds",
    "UnicycleInput",
    "ExtendedState",
    "unicycle_to_wheel",
    "unicycle_rhs",
    "extended_rhs",
    "rk4_step",
]


@dataclass(frozen=True)
class RobotParams:
    """Drive geometry: wheel radius and axle length, meters."""

    wheel_radius: float = 0.1
    axle_length: float = 0.5

    def __post_init__(self):
        if not self.wheel_radius > 0.0:
            raise ConfigError("wheel_radius must be positive")
        if not self.axle_length > 0.0:
            raise ConfigError("axle_length must be positive")


@dataclass(frozen=True)
class WheelSpeeds:
    """Right and left wheel angular rates, rad/s."""

    omega_r: float
    omega_l: float


@dataclass(frozen=True)
class UnicycleInput:
    """Forward velocity u1 (m/s) and turn rate u2 (rad/s)."""

    u1: float
    u2: float


@dataclass(frozen=True)
class ExtendedState:
    """Pose plus the integrator state zeta, the commanded forward speed."""

    x1: float
    x2: float
    x3: float
    zeta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.zeta])


def unicycle_to_wheel(u: UnicycleInput, p: RobotParams) -> WheelSpeeds:
    """Wheel rates that produce the unicycle input.

    Inverts u1 = (r/2)(omega_r + omega_l), u2 = (r/d)(omega_r - omega_l).
    """
    r, d = p.wheel_radius, p.axle_length
    omega_r = u.u1 / r + d * u.u2 / (2.0 * r)
    omega_l = u.u1 / r - d * u.u2 / (2.0 * r)
    return WheelSpeeds(omega_r, omega_l)


def unicycle_rhs(x: np.ndarray, u) -> np.ndarray:
    """Unicycle dynamics on a raw 3-vector (x1, x2, heading)."""
    u1, u2 = u
    return np.array([u1 * math.cos(x[2]), u1 * math.sin(x[2]), u2])


def extended_rhs(x: np.ndarray, control) -> np.ndarray:
    """Extended dynamics on a raw 4-vector (x1, x2, heading, zeta).

    control = (accel, turn_rate): zeta integrates the forward acceleration
    and the heading integrates the turn rate.
    """
    accel, turn_rate = control
    return np.array(
        [x[3] * math.cos(x[2]), x[3] * math.sin(x[2]), turn_rate, accel]
    )


def rk4_step(fn, state: np.ndarray, u, ts: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step with the input held constant.

    Parameters
    ----------
    fn : callable
        Dynamics ``fn(state, u) -> derivative`` on n-vectors.
    state : ndarray
        Current state.
    u : object
        Input, passed through unchanged to ``fn``.
    ts : float
        Step length, seconds. Must be positive.
    """
    if not ts > 0.0:
        raise ConfigError("ts must be positive")
    k1 = fn(state, u)
    k2 = fn(state + 0.5 * ts * k1, u)
    k3 = fn(state + 0.5 * ts * k2, u)
    k4 = fn(state + ts * k3, u)
    return state + (ts / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

