import math

import numpy as np
import pytest

from scmpc import ConfigError, Obstacle
from scmpc.lti import discretize_double_integrator, terminal_data
from scmpc.safety import barrier_xy, sample_terminal_box, terminal_safety_check

OBS = Obstacle(3.5, 3.5, 1.5)


def test_obstacle_validation():
    # The message names the offending field.
    for args, name in (((0.0, 0.0, 0.0), "radius"), ((math.inf, 3.5, 1.0), "x"),
                       ((math.nan, 3.5, 1.0), "x"), ((3.5, -math.inf, 1.0), "y"),
                       ((3.5, 3.5, math.inf), "radius"),
                       ((3.5, 3.5, math.nan), "radius"), (("a", 0, 1), "x"),
                       ((1, 2, "3"), "radius"), ((True, 0, 1), "x"),
                       ((0, np.True_, 1), "y")):
        with pytest.raises(ConfigError, match=f"obstacle {name}"):
            Obstacle(*args)


def test_barrier_examples():
    assert barrier_xy(7.0, 7.0, OBS) == pytest.approx(22.25, abs=1e-12)
    assert barrier_xy(3.5 + 1.5, 3.5, OBS) == pytest.approx(0.0, abs=1e-12)
    assert barrier_xy(3.5, 3.5, OBS) == pytest.approx(-1.5**2, abs=1e-12)


def test_barrier_rotation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(200):
        radius = float(rng.uniform(0.0, 4.0))
        phi = float(rng.uniform(0, 2 * math.pi))
        rot = float(rng.uniform(0, 2 * math.pi))
        a = barrier_xy(OBS.x + radius * math.cos(phi),
                       OBS.y + radius * math.sin(phi), OBS)
        b = barrier_xy(OBS.x + radius * math.cos(phi + rot),
                       OBS.y + radius * math.sin(phi + rot), OBS)
        assert a == pytest.approx(b, abs=1e-10)


def test_terminal_safety_check_far_obstacle_passes():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    far = Obstacle(500.0, 500.0, 1.5)
    rng = np.random.default_rng(14)
    samples = sample_terminal_box(1.0, 0.5, [far], 2000, rng)
    rep = terminal_safety_check(model, td.K, 0.1, far, samples)
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
    rep = terminal_safety_check(model, td.K, 0.1, obs, sample)
    assert not rep.passed
    assert rep.worst_margin < 0.0


def test_terminal_safety_check_nominal_passes():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    rng = np.random.default_rng(15)
    samples = sample_terminal_box(1.0, 0.5, [OBS], 10000, rng)
    rep = terminal_safety_check(model, td.K, 0.1, OBS, samples)
    assert rep.passed


def test_terminal_safety_check_rejects_empty():
    model = discretize_double_integrator(0.05)
    td = terminal_data(model, np.eye(4), np.diag([0.1, 0.1]))
    with pytest.raises(ConfigError):
        terminal_safety_check(model, td.K, 0.1, OBS, np.empty((0, 4)))


def test_sample_terminal_box_respects_bounds_and_safety():
    rng = np.random.default_rng(16)
    obstacles = [Obstacle(0.5, 0.5, 0.4)]
    samples = sample_terminal_box(1.0, 0.5, obstacles, 500, rng)
    assert samples.shape == (500, 4)
    assert np.max(np.abs(samples[:, [0, 2]])) <= 1.0
    assert np.max(np.abs(samples[:, [1, 3]])) <= 0.5
    h = (samples[:, 0] - 0.5) ** 2 + (samples[:, 2] - 0.5) ** 2 - 0.4**2
    assert np.min(h) >= 0.0
