import numpy as np
import pytest

from scmpc import ConfigError, discretize_double_integrator, terminal_data
from scmpc.lti import (LtiModel, continuous_matrices, dlqr_gain,
                       riccati_solution, spectral_radius, terminal_weight)
from scmpc.model import rk4_step

Q4 = np.eye(4)
R2 = np.diag([0.1, 0.1])


def test_zoh_blocks():
    m = discretize_double_integrator(0.05)
    np.testing.assert_allclose(m.A[:2, :2], [[1.0, 0.05], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(m.B[:2, 0], [0.00125, 0.05], atol=1e-15)
    assert np.all(m.A[:2, 2:] == 0.0) and np.all(m.A[2:, :2] == 0.0)
    m = discretize_double_integrator(1.0)
    np.testing.assert_allclose(m.A[2:, 2:], [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(m.B[2:, 1], [0.5, 1.0], atol=1e-15)


def test_zoh_eigenvalues_all_one():
    for ts in (0.01, 0.05, 0.7):
        m = discretize_double_integrator(ts)
        np.testing.assert_allclose(np.linalg.eigvals(m.A), np.ones(4), atol=1e-12)


def test_zoh_rejects_bad_ts():
    with pytest.raises(ConfigError):
        discretize_double_integrator(0.0)


def test_rk4_agrees_with_discrete_model():
    a, b = continuous_matrices()
    m = discretize_double_integrator(0.05)
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = rng.uniform(-3, 3, size=4)
        v = rng.uniform(-2, 2, size=2)
        integrated = rk4_step(lambda s, u: a @ s + b @ u, z, v, 0.05)
        np.testing.assert_allclose(integrated, m.A @ z + m.B @ v, atol=1e-12)


def _value_iteration_single_chain(A, B, Q, r, iters=20000, tol=1e-13):
    """Bellman iteration where the input minimization is done numerically
    by exact quadratic interpolation of cost evaluations, independent of
    the Riccati formula."""
    P = Q.copy()

    def stage(x, u):
        xn = A @ x + B[:, 0] * u
        return float(x @ Q @ x) + r * u * u + float(xn @ P @ xn)

    def value(x):
        f0, f1, fm1 = stage(x, 0.0), stage(x, 1.0), stage(x, -1.0)
        a = 0.5 * (f1 - 2.0 * f0 + fm1)
        b = 0.5 * (f1 - fm1)
        return f0 - b * b / (4.0 * a)

    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    for _ in range(iters):
        v11 = value(e1)
        v22 = value(e2)
        v12 = 0.5 * (value(e1 + e2) - v11 - v22)
        new_p = np.array([[v11, v12], [v12, v22]])
        if np.max(np.abs(new_p - P)) <= tol:
            return new_p
        P = new_p
    return P


def test_riccati_matches_value_iteration_oracle():
    ts = 0.05
    A = np.array([[1.0, ts], [0.0, 1.0]])
    B = np.array([[0.5 * ts * ts], [ts]])
    model = LtiModel(A, B, ts)
    mine = riccati_solution(model, np.eye(2), np.array([[1.0]]))
    oracle = _value_iteration_single_chain(A, B, np.eye(2), 1.0)
    np.testing.assert_allclose(mine, oracle, atol=1e-9)


def test_riccati_residual_at_fixed_point():
    m = discretize_double_integrator(0.05)
    P = riccati_solution(m, Q4, R2)
    A, B = m.A, m.B
    gain = np.linalg.solve(R2 + B.T @ P @ B, B.T @ P @ A)
    resid = P - (Q4 + A.T @ P @ A - A.T @ P @ B @ gain)
    assert np.max(np.abs(resid)) <= 1e-9


def test_dlqr_stabilizes():
    m = discretize_double_integrator(0.05)
    K = dlqr_gain(m, Q4, R2)
    assert K.shape == (2, 4)
    assert spectral_radius(m.A + m.B @ K) < 1.0


def test_terminal_weight_lyapunov_residual():
    m = discretize_double_integrator(0.05)
    td = terminal_data(m, Q4, R2)
    a_cl = m.A + m.B @ td.K
    resid = td.Qbar - a_cl.T @ td.Qbar @ a_cl - (Q4 + td.K.T @ R2 @ td.K)
    assert np.max(np.abs(resid)) <= 1e-9
    np.testing.assert_allclose(td.Qbar, td.Qbar.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(td.Qbar)) > 0.0


def test_terminal_weight_is_infinite_horizon_cost():
    m = discretize_double_integrator(0.05)
    td = terminal_data(m, Q4, R2)
    a_cl = m.A + m.B @ td.K
    rng = np.random.default_rng(10)
    for _ in range(20):
        z0 = rng.uniform(-2, 2, size=4)
        z = z0.copy()
        total = 0.0
        for _ in range(2000):
            v = td.K @ z
            total += float(z @ Q4 @ z + v @ R2 @ v)
            z = a_cl @ z
        target = float(z0 @ td.Qbar @ z0)
        assert abs(total - target) <= 1e-6 * abs(target)


def test_terminal_weight_equals_riccati_solution_for_lqr_gain():
    m = discretize_double_integrator(0.05)
    td = terminal_data(m, Q4, R2)
    P = riccati_solution(m, Q4, R2)
    assert np.max(np.abs(td.Qbar - P)) <= 1e-8


def test_terminal_weight_rejects_unstable_gain():
    m = discretize_double_integrator(0.05)
    with pytest.raises(ConfigError, match="not stabilizing"):
        terminal_weight(m, np.zeros((2, 4)), Q4, R2)


def test_cost_decrease_identity():
    m = discretize_double_integrator(0.05)
    td = terminal_data(m, Q4, R2)
    a_cl = m.A + m.B @ td.K
    rng = np.random.default_rng(11)
    for _ in range(100):
        z = rng.uniform(-3, 3, size=4)
        v = td.K @ z
        z_next = a_cl @ z
        lhs = float(z_next @ td.Qbar @ z_next - z @ td.Qbar @ z)
        rhs = -float(z @ Q4 @ z + v @ R2 @ v)
        assert abs(lhs - rhs) <= 1e-9


def test_spectral_radius_examples():
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) \
        == pytest.approx(0.0, abs=1e-8)
    m = discretize_double_integrator(0.05)
    td = terminal_data(m, Q4, R2)
    assert 0.0 < td.spectral_radius < 1.0
    with pytest.raises(ConfigError):
        spectral_radius(np.zeros((2, 3)))
