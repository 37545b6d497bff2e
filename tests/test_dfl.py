import math

import numpy as np
import pytest

from scmpc import ConfigError, DflGuard, ExtendedState
from scmpc.dfl import (closed_loop_rhs, decoupling_matrix, dfl_control,
                       map_x_array_to_z, map_z_to_x)
from scmpc.lti import continuous_matrices, discretize_double_integrator
from scmpc.model import rk4_step

GUARD = DflGuard(zeta_threshold=0.01)


def test_guard_validation():
    for threshold in (0.0, True, math.inf):
        with pytest.raises(ConfigError):
            DflGuard(zeta_threshold=threshold)


def test_control_law_examples():
    u1, u2 = dfl_control((0, 0, 0.0, 1.0), (1.0, 0.0), GUARD)
    assert (u1, u2) == pytest.approx((1.0, 0.0), abs=1e-15)
    u1, u2 = dfl_control((0, 0, math.pi / 2, 2.0), (0.0, 1.0), GUARD)
    assert (u1, u2) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_guard_zeros_turn_rate_only():
    u1, u2 = dfl_control((1.0, -1.0, 0.8, 0.005), (0.7, -0.4), GUARD)
    assert u2 == 0.0
    assert u1 == pytest.approx(0.7 * math.cos(0.8) - 0.4 * math.sin(0.8), abs=1e-15)


def test_forward_map_examples():
    z = map_x_array_to_z(np.array([1.0, 2.0, 0.0, 3.0]))
    assert z == pytest.approx([1, 3, 2, 0], abs=1e-15)
    z = map_x_array_to_z(np.array([0.0, 0.0, math.pi / 2, 2.0]))
    assert z == pytest.approx([0, 0, 0, 2], abs=1e-15)
    z = map_x_array_to_z(np.array([4.0, -1.0, math.pi / 4, math.sqrt(2.0)]))
    assert z == pytest.approx([4, 1, -1, 1], abs=1e-12)


def test_inverse_map_examples():
    x, ok = map_z_to_x(np.array([1.0, 3.0, 2.0, 0.0]))
    assert ok
    assert x == pytest.approx([1, 2, 0, 3], abs=1e-15)
    x, ok = map_z_to_x(np.array([0.0, 0.0, 0.0, 2.0]))
    assert ok
    assert x[2] == pytest.approx(math.pi / 2, abs=1e-15)
    assert x[3] == pytest.approx(2.0, abs=1e-15)
    x, ok = map_z_to_x(np.array([4.0, 1.0, -1.0, 1.0]))
    assert ok
    assert x[2] == pytest.approx(math.pi / 4, abs=1e-15)
    assert x[3] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_inverse_map_indeterminate_below_threshold():
    x, ok = map_z_to_x(np.array([1.0, 0.004, 2.0, 0.003]),
                       zeta_threshold=0.01, fallback_heading=0.37)
    assert not ok
    assert x[2] == 0.37
    assert x[3] == pytest.approx(math.hypot(0.004, 0.003), abs=1e-15)


def test_map_round_trip_on_z_side():
    rng = np.random.default_rng(4)
    for _ in range(300):
        z = rng.uniform(-5, 5, size=4)
        if math.hypot(z[1], z[3]) <= 0.01:
            continue
        x, ok = map_z_to_x(z, zeta_threshold=0.01)
        assert ok
        np.testing.assert_allclose(map_x_array_to_z(x), z, atol=1e-12)


def test_decoupling_matrix_examples():
    mat, det = decoupling_matrix(ExtendedState(0, 0, 0.0, 2.0))
    np.testing.assert_allclose(mat, [[1, 0], [0, 2]], atol=1e-15)
    assert det == pytest.approx(2.0, abs=1e-15)
    mat, det = decoupling_matrix(ExtendedState(0, 0, math.pi / 2, 1.0))
    np.testing.assert_allclose(mat, [[0, -1], [1, 0]], atol=1e-15)
    assert det == pytest.approx(1.0, abs=1e-15)


def test_decoupling_determinant_equals_speed():
    rng = np.random.default_rng(5)
    for _ in range(300):
        s = ExtendedState(0, 0, float(rng.uniform(-10, 10)),
                          float(rng.uniform(-3, 3)))
        _, det = decoupling_matrix(s)
        assert abs(det - s.zeta) <= 1e-14


def test_closed_loop_matches_double_integrator():
    # Feedback-linearized plant integrated in the original coordinates
    # versus the exact discrete double integrator, over a random
    # piecewise-constant virtual input.
    rng = np.random.default_rng(8)
    ts = 0.005
    model = discretize_double_integrator(ts)
    for trial in range(5):
        heading = float(rng.uniform(-math.pi, math.pi))
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), heading, 1.0])
        z = map_x_array_to_z(x)
        v = rng.uniform(-1, 1, size=2)
        worst = 0.0
        for k in range(200):
            if k % 10 == 0:
                v = rng.uniform(-1.0, 1.0, size=2)
            x = rk4_step(lambda s, vv: closed_loop_rhs(s, vv, GUARD), x, v, ts)
            z = model.A @ z + model.B @ v
            worst = max(worst, float(np.max(np.abs(map_x_array_to_z(x) - z))))
            assert x[3] > 2 * GUARD.zeta_threshold
        assert worst <= 1e-4


def test_continuous_model_consistency():
    # The linearized flow is the double-integrator flow.
    a, b = continuous_matrices()
    s = ExtendedState(0.5, -0.3, 0.9, 1.7)
    v = np.array([0.4, -0.2])
    xdot = closed_loop_rhs(s.as_array(), v, GUARD)
    # chain rule: zdot = d/dt (x1, zeta cos, x2, zeta sin)
    zdot = np.array([
        xdot[0],
        xdot[3] * math.cos(s.x3) - s.zeta * math.sin(s.x3) * xdot[2],
        xdot[1],
        xdot[3] * math.sin(s.x3) + s.zeta * math.cos(s.x3) * xdot[2],
    ])
    expect = a @ map_x_array_to_z(s.as_array()) + b @ v
    np.testing.assert_allclose(zdot, expect, atol=1e-12)
