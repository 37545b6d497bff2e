"""Barrier function for circular obstacles and the related residuals.

The barrier H is the squared clearance to the obstacle boundary; its
nonnegative superlevel set is the safe set. The per-step constraint
H(z+) >= (1 - gamma) H(z) limits how fast the barrier may decay; the
Euclidean baseline keeps only the plain per-step sign condition H >= 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .dfl import LinearState
from .lti import LtiModel

__all__ = [
    "Obstacle",
    "CbfParams",
    "TerminalSafetyReport",
    "barrier",
    "barrier_xy",
    "cbf_residual",
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
        if not self.radius > 0.0:
            raise ConfigError("obstacle radius must be positive")

    def center(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class CbfParams:
    """Barrier decay rate gamma in (0, 1]; smaller is more conservative."""

    gamma: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class TerminalSafetyReport:
    """Outcome of the sampled terminal safe-invariance check."""

    passed: bool
    worst_margin: float
    n_samples: int


def barrier_xy(px: float, py: float, obs: Obstacle) -> float:
    """Barrier value at a planar point."""
    return (px - obs.x) ** 2 + (py - obs.y) ** 2 - obs.radius**2


def barrier(z, obs: Obstacle) -> float:
    """Barrier value at a linear state; depends only on (z1, z3)."""
    if isinstance(z, LinearState):
        return barrier_xy(z.z1, z.z3, obs)
    return barrier_xy(float(z[0]), float(z[2]), obs)


def cbf_residual(z_k, z_k1, p: CbfParams, obs: Obstacle) -> float:
    """Slack of the decay constraint between consecutive states.

    Returns H(z_k1) - (1 - gamma) H(z_k); the constraint holds iff the
    result is nonnegative.
    """
    return barrier(z_k1, obs) - (1.0 - p.gamma) * barrier(z_k, obs)


def terminal_safety_check(model: LtiModel, K: np.ndarray, p: CbfParams,
                          obs: Obstacle, terminal_samples) -> TerminalSafetyReport:
    """Check the safe-invariance inequality under the terminal controller.

    For every sampled state z the closed-loop successor (A + B K) z must
    satisfy H(successor) > (1 - gamma) H(z). Reports the minimum margin
    over the samples.
    """
    samples = np.atleast_2d(np.asarray(terminal_samples, dtype=float))
    if samples.size == 0:
        raise ConfigError("terminal_samples must be nonempty")
    A_cl = model.A + model.B @ K
    succ = samples @ A_cl.T
    h_now = (samples[:, 0] - obs.x) ** 2 + (samples[:, 2] - obs.y) ** 2 - obs.radius**2
    h_next = (succ[:, 0] - obs.x) ** 2 + (succ[:, 2] - obs.y) ** 2 - obs.radius**2
    margins = h_next - (1.0 - p.gamma) * h_now
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
            h = (batch[:, 0] - obs.x) ** 2 + (batch[:, 2] - obs.y) ** 2 - obs.radius**2
            keep &= h >= 0.0
        out = np.vstack([out, batch[keep]])
    return out[:n_samples]
