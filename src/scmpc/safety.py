"""Barrier function for circular obstacles and the terminal safety check.

The barrier H is the squared clearance to the obstacle boundary; its
nonnegative superlevel set is the safe set. The per-step constraint
H(z+) >= (1 - gamma) H(z) limits how fast the barrier may decay; the
Euclidean baseline keeps only the plain per-step sign condition H >= 0.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .lti import LtiModel

__all__ = [
    "Obstacle",
    "TerminalSafetyReport",
    "barrier_xy",
    "terminal_safety_check",
    "sample_terminal_box",
]


@dataclass(frozen=True)
class Obstacle:
    """Circular obstacle: center (x, y) and radius, meters."""

    x: float
    y: float
    radius: float

    def __post_init__(self):
        if not (all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) for v in (self.x, self.y, self.radius))
                and self.radius > 0.0):
            raise ConfigError("obstacle center and radius must be finite "
                              "numbers and the radius positive")

    def center(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class TerminalSafetyReport:
    """Outcome of the sampled terminal safe-invariance check."""

    passed: bool
    worst_margin: float
    n_samples: int


def barrier_xy(px, py, obs: Obstacle):
    """Barrier value at a planar point, or elementwise on arrays of them."""
    return (px - obs.x) ** 2 + (py - obs.y) ** 2 - obs.radius**2


def terminal_safety_check(model: LtiModel, K: np.ndarray, gamma: float,
                          obs: Obstacle, terminal_samples) -> TerminalSafetyReport:
    """Check the safe-invariance inequality under the terminal controller.

    For every sampled state z the closed-loop successor (A + B K) z must
    satisfy H(successor) > (1 - gamma) H(z), with the decay rate gamma as
    validated by MpcConfig. Reports the minimum margin over the samples.
    """
    samples = np.atleast_2d(np.asarray(terminal_samples, dtype=float))
    if samples.size == 0:
        raise ConfigError("terminal_samples must be nonempty")
    A_cl = model.A + model.B @ K
    succ = samples @ A_cl.T
    h_now = barrier_xy(samples[:, 0], samples[:, 2], obs)
    h_next = barrier_xy(succ[:, 0], succ[:, 2], obs)
    margins = h_next - (1.0 - gamma) * h_now
    worst = float(np.min(margins))
    return TerminalSafetyReport(passed=bool(worst > 0.0), worst_margin=worst,
                                n_samples=samples.shape[0])


def sample_terminal_box(pos_bound: float, vel_bound: float, obstacles,
                        n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples over the state box, restricted to the safe set.

    Positions are drawn with infinity norm at most pos_bound and velocities
    with infinity norm at most vel_bound; samples with a negative barrier
    for any obstacle are discarded.
    """
    if n_samples <= 0:
        raise ConfigError("n_samples must be positive")
    out = np.empty((0, 4))
    while out.shape[0] < n_samples:
        batch = rng.uniform(-1.0, 1.0, size=(2 * n_samples, 4))
        batch[:, 0] *= pos_bound
        batch[:, 2] *= pos_bound
        batch[:, 1] *= vel_bound
        batch[:, 3] *= vel_bound
        keep = np.ones(batch.shape[0], dtype=bool)
        for obs in obstacles:
            keep &= barrier_xy(batch[:, 0], batch[:, 2], obs) >= 0.0
        out = np.vstack([out, batch[keep]])
    return out[:n_samples]
