"""Dynamic feedback linearization of the extended unicycle.

Adding an integrator on the forward velocity makes the unicycle exactly
input-output linearizable: under the control law in ``dfl_control`` the
position outputs behave as a pair of decoupled double integrators. This
module holds the control law and the coordinate maps between the extended
state (x1, x2, heading, zeta) and the linear coordinates
(z1, z2, z3, z4) = (x1, zeta cos x3, x2, zeta sin x3).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import real
from .model import ExtendedState

__all__ = [
    "DflGuard",
    "dfl_control",
    "map_x_array_to_z",
    "map_z_to_x",
    "decoupling_matrix",
    "closed_loop_rhs",
]


@dataclass(frozen=True)
class DflGuard:
    """Low-speed cutoff protecting the division by zeta in the control law."""

    zeta_threshold: float = 0.01

    def __post_init__(self):
        real(self.zeta_threshold, "zeta_threshold", above=0.0)


def dfl_control(x, v, guard: DflGuard):
    """Map a virtual acceleration v = (v1, v2) at the extended state x, a
    4-sequence (x1, x2, heading, zeta), to the extended-model input
    (accel, turn).

    accel = v1*cos(x3) + v2*sin(x3). The turn rate divides by zeta, so it
    is zeroed whenever |zeta| is at or below the guard threshold; the
    acceleration channel stays active so the speed can recover. The
    decoupling matrix has determinant zeta, so the law also steers a
    reversing robot (zeta < -threshold). The law is the one in
    closed_loop_rhs, read off its last two entries.
    """
    _, _, turn, accel = closed_loop_rhs(x, v, guard)
    return accel, turn


def map_x_array_to_z(x: np.ndarray) -> np.ndarray:
    """Forward coordinate change: z = (x1, zeta*cos x3, x2, zeta*sin x3)."""
    c, sn = math.cos(x[2]), math.sin(x[2])
    return np.array([x[0], x[3] * c, x[1], x[3] * sn])


def map_z_to_x(z: np.ndarray, zeta_threshold: float = 0.0,
               fallback_heading: float = 0.0):
    """Inverse coordinate change.

    Heading is recovered as atan2(z4, z2) and the speed as hypot(z2, z4),
    which is always nonnegative. When the speed is at or below
    ``zeta_threshold`` the heading is indeterminate: the fallback heading
    is used and the second return value is False so the caller can retain
    its previous estimate.

    Returns
    -------
    (ndarray, bool)
        Recovered extended state (x1, x2, x3, zeta) and whether the
        heading was determinate.
    """
    speed = math.hypot(z[1], z[3])
    determinate = speed > zeta_threshold
    heading = math.atan2(z[3], z[1]) if determinate else fallback_heading
    return np.array([z[0], z[2], heading, speed]), determinate


def decoupling_matrix(s: ExtendedState):
    """Input-coupling matrix of the extended model and its determinant.

    The determinant equals zeta, so the matrix is singular exactly at
    standstill.
    """
    c, sn = math.cos(s.x3), math.sin(s.x3)
    mat = np.array([[c, -s.zeta * sn], [sn, s.zeta * c]])
    det = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    return mat, det


def closed_loop_rhs(x, v, guard: DflGuard) -> tuple:
    """Extended dynamics with the linearizing feedback in the loop.

    The virtual input v is held constant while the feedback law is
    re-evaluated at the instantaneous state, so in linear coordinates the
    flow is exactly the double-integrator flow (away from the guard).

    x is a 4-sequence of floats (x1, x2, heading, zeta) and the derivative
    is a tuple of floats: zeta integrates the law's acceleration and the
    heading its turn rate. The law and the kinematics share one cos/sin
    evaluation.
    """
    zeta = x[3]
    c, sn = math.cos(x[2]), math.sin(x[2])
    v1, v2 = v[0], v[1]
    turn = ((-v1 * sn + v2 * c) / zeta
            if abs(zeta) > guard.zeta_threshold else 0.0)
    return (zeta * c, zeta * sn, turn, v1 * c + v2 * sn)
