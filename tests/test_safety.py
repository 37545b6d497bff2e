import math

import numpy as np
import pytest

from scmpc import (CbfParams, ConfigError, LinearState, Obstacle, barrier,
                   cbf_residual, sample_terminal_box, terminal_safety_check)
from scmpc.lti import discretize_double_integrator, terminal_data

OBS = Obstacle(3.5, 3.5, 1.5)


def _state(px, py, vx=0.0, vy=0.0):
    return LinearState(px, vx, py, vy)


def test_obstacle_validation():
    with pytest.raises(ConfigError):
        Obstacle(0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        CbfParams(gamma=0.0)
    with pytest.raises(ConfigError):
        CbfParams(gamma=1.5)


def test_barrier_examples():
    assert barrier(_state(7.0, 7.0), OBS) == pytest.approx(22.25, abs=1e-12)
    on_boundary = _state(3.5 + 1.5, 3.5)
    assert barrier(on_boundary, OBS) == pytest.approx(0.0, abs=1e-12)
    assert barrier(_state(3.5, 3.5), OBS) == pytest.approx(-1.5**2, abs=1e-12)


def test_barrier_rotation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(200):
        radius = float(rng.uniform(0.0, 4.0))
        phi = float(rng.uniform(0, 2 * math.pi))
        rot = float(rng.uniform(0, 2 * math.pi))
        a = _state(OBS.x + radius * math.cos(phi), OBS.y + radius * math.sin(phi))
        b = _state(OBS.x + radius * math.cos(phi + rot),
                   OBS.y + radius * math.sin(phi + rot))
        assert barrier(a, OBS) == pytest.approx(barrier(b, OBS), abs=1e-10)


def test_cbf_residual_examples():
    z0 = _state(7.0, 7.0)
    z1 = _state(6.0, 6.0)
    # gamma = 1 reduces to the plain state constraint on the next step
    assert cbf_residual(z0, z1, CbfParams(gamma=1.0), OBS) \
        == pytest.approx(barrier(z1, OBS), abs=1e-12)
    # gamma -> 0 with no motion: equality
    assert cbf_residual(z0, z0, CbfParams(gamma=1e-12), OBS) \
        == pytest.approx(0.0, abs=1e-9)
    # numbers from the barrier values: 20 - 0.9 * 22.25 = -0.025
    z1 = _state(3.5 + math.sqrt(20.0 + 1.5**2), 3.5)  # H = 20
    assert barrier(z1, OBS) == pytest.approx(20.0, abs=1e-12)
    assert cbf_residual(z0, z1, CbfParams(gamma=0.1), OBS) \
        == pytest.approx(-0.025, abs=1e-12)


def test_terminal_safety_check_far_obstacle_passes():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    far = Obstacle(500.0, 500.0, 1.5)
    rng = np.random.default_rng(14)
    samples = sample_terminal_box(1.0, 0.5, [far], 2000, rng)
    rep = terminal_safety_check(model, td.K, CbfParams(gamma=0.1), far, samples)
    assert rep.passed
    assert rep.worst_margin > 0.0
    assert rep.n_samples == 2000


def test_terminal_safety_check_adversarial_sample_fails():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    obs = Obstacle(2.0, 0.0, 1.0)
    # On the boundary, moving hard into the disk: the closed-loop
    # successor lands inside, so the margin must be negative.
    sample = np.array([[1.0, 8.0, 0.0, 0.0]])
    rep = terminal_safety_check(model, td.K, CbfParams(gamma=0.1), obs, sample)
    assert not rep.passed
    assert rep.worst_margin < 0.0


def test_terminal_safety_check_nominal_passes():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    rng = np.random.default_rng(15)
    samples = sample_terminal_box(1.0, 0.5, [OBS], 10000, rng)
    rep = terminal_safety_check(model, td.K, CbfParams(gamma=0.1), OBS, samples)
    assert rep.passed


def test_terminal_safety_check_rejects_empty():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    with pytest.raises(ConfigError):
        terminal_safety_check(model, td.K, CbfParams(gamma=0.1), OBS,
                              np.empty((0, 4)))


def test_sample_terminal_box_respects_bounds_and_safety():
    rng = np.random.default_rng(16)
    obstacles = [Obstacle(0.5, 0.5, 0.4)]
    samples = sample_terminal_box(1.0, 0.5, obstacles, 500, rng)
    assert samples.shape == (500, 4)
    assert np.max(np.abs(samples[:, [0, 2]])) <= 1.0
    assert np.max(np.abs(samples[:, [1, 3]])) <= 0.5
    h = (samples[:, 0] - 0.5) ** 2 + (samples[:, 2] - 0.5) ** 2 - 0.4**2
    assert np.min(h) >= 0.0
