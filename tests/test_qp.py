import numpy as np
import pytest

from scmpc.qp import QpResult, _ratio_test, solve_qp


def _random_feasible_qp(rng, n, m, box_scale=1.0):
    a = rng.normal(size=(n, n))
    hessian = a.T @ a + n * np.eye(n)
    gradient = rng.normal(size=n) * box_scale
    rows = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n) * box_scale
    rhs = rows @ x_feas + np.abs(rng.normal(size=m)) + 1e-3
    return hessian, gradient, rows, rhs


def _dual_projected_gradient(hessian, gradient, rows, rhs, iters=200000):
    """Accelerated projected gradient on the dual, with restarts.

    Only evaluations and the trivial projection onto the nonnegative
    orthant are used, keeping the oracle independent of the active-set
    path it checks.
    """
    hinv_gt = np.linalg.solve(hessian, rows.T)
    hinv_g = np.linalg.solve(hessian, gradient)
    gram = rows @ hinv_gt
    lip = float(np.max(np.linalg.eigvalsh(gram))) + 1e-12
    const = rows @ hinv_g + rhs
    lam = np.zeros(rows.shape[0])
    mom = lam.copy()
    t = 1.0
    for _ in range(iters):
        grad = gram @ mom + const
        nxt = np.maximum(mom - grad / lip, 0.0)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        step = nxt - lam
        if float(step @ (lam - mom)) > 0.0:  # restart momentum
            t_next = 1.0
            mom = nxt
        else:
            mom = nxt + ((t - 1.0) / t_next) * step
        if np.max(np.abs(step)) <= 1e-14 * (1.0 + np.max(np.abs(lam))):
            lam = nxt
            break
        lam, t = nxt, t_next
    x = -np.linalg.solve(hessian, gradient + rows.T @ lam)
    return x, lam


def test_unconstrained_solves_directly():
    hessian = np.diag([2.0, 4.0])
    gradient = np.array([-2.0, -8.0])
    res = solve_qp(hessian, gradient)
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-10)
    assert res.status == "optimal"


def test_clipped_scalar_minimum():
    # min (x - 2)^2 subject to x <= 1
    res = solve_qp(np.array([[2.0]]), np.array([-4.0]),
                   np.array([[1.0]]), np.array([1.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0, abs=1e-10)
    assert res.active_set == [0]
    assert res.multipliers[0] == pytest.approx(2.0, abs=1e-8)


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        hessian, gradient, rows, rhs = _random_feasible_qp(rng, 6, 8)
        res = solve_qp(hessian, gradient, rows, rhs)
        assert res.status == "optimal"
        x_pg, _ = _dual_projected_gradient(hessian, gradient, rows, rhs)
        np.testing.assert_allclose(res.x, x_pg, atol=1e-6)


def test_kkt_residuals_random_instances():
    rng = np.random.default_rng(18)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 21))
        hessian, gradient, rows, rhs = _random_feasible_qp(rng, n, m)
        res = solve_qp(hessian, gradient, rows, rhs)
        assert res.status == "optimal"
        lam = res.multipliers
        stationarity = hessian @ res.x + gradient + rows.T @ lam
        assert np.max(np.abs(stationarity)) <= 1e-8
        assert np.max(rows @ res.x - rhs) <= 1e-8
        assert np.min(lam) >= 0.0
        assert np.max(np.abs(lam * (rows @ res.x - rhs))) <= 1e-8


def test_detects_infeasible_rows():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
    rhs = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
    res = solve_qp(np.eye(2), np.zeros(2), rows, rhs)
    assert res.status == "infeasible"
    assert res.max_violation > 0.5


def test_phase1_recovers_from_violating_start():
    rng = np.random.default_rng(19)
    hessian, gradient, rows, rhs = _random_feasible_qp(rng, 4, 6)
    bad_start = rng.normal(size=4) * 50.0
    res = solve_qp(hessian, gradient, rows, rhs, x0=bad_start)
    assert res.status == "optimal"
    assert np.max(rows @ res.x - rhs) <= 1e-8


def test_active_set_reported():
    # Box-constrained: minimum pushed into a corner.
    hessian = np.eye(2)
    gradient = np.array([-10.0, -10.0])
    rows = np.vstack([np.eye(2), -np.eye(2)])
    rhs = np.array([1.0, 1.0, 0.0, 0.0])
    res = solve_qp(hessian, gradient, rows, rhs)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
    assert sorted(res.active_set) == [0, 1]
    assert res.iterations >= 1


def test_capped_solves_return_a_result():
    # The last capped iteration may add or drop a working row after its
    # KKT solve; the multipliers must still match the returned set.
    rng = np.random.default_rng(22)
    capped = 0
    for _ in range(300):
        hessian, gradient, rows, rhs = _random_feasible_qp(rng, 4, 12)
        res = solve_qp(hessian, gradient, rows, rhs,
                       max_iter=int(rng.integers(1, 4)))
        assert isinstance(res, QpResult)
        assert len(res.multipliers) == 12
        assert np.all(np.isfinite(res.x))
        assert np.min(res.multipliers) >= 0.0
        # The instances are feasible, so a capped Phase 1 must not report
        # infeasible.
        assert res.status != "infeasible"
        capped += res.status == "max_iter"
    assert capped > 100


def _ratio_test_loop(gp, slack, h, work):
    """The scalar blocking-ratio scan, kept as the reference."""
    alpha = 1.0
    blocker = -1
    for i in range(gp.shape[0]):
        if i in work or gp[i] <= 1e-12 * (1.0 + abs(h[i])):
            continue
        ratio = max(slack[i], 0.0) / gp[i]
        if ratio < alpha - 1e-14:
            alpha = ratio
            blocker = i
    return alpha, blocker


def test_ratio_test_matches_scalar_loop():
    rng = np.random.default_rng(23)
    blocked = ties = 0
    for trial in range(2000):
        m = int(rng.integers(1, 40))
        gp = rng.normal(size=m)
        gp[rng.random(m) < 0.1] = 0.0
        slack = np.abs(rng.normal(size=m)) * rng.choice([0.1, 1.0, 3.0])
        slack[rng.random(m) < 0.1] *= -1e-12  # tiny violations clip to 0
        h = rng.normal(size=m) * 10.0
        work = sorted(rng.choice(m, size=int(rng.integers(0, m // 3 + 1)),
                                 replace=False).tolist())
        if trial % 2 and m >= 3:
            # Plant ratios equal to, or within 1e-14 of, another row's and
            # of the cutoff 1 - 1e-14, including rows after the first one.
            i, j, k = rng.choice(m, size=3, replace=False)
            gp[[i, j, k]] = np.abs(gp[[i, j, k]]) + 0.1
            base = float(rng.uniform(0.2, 0.9))
            slack[i] = base * gp[i]
            slack[j] = (base + float(rng.choice([0.0, 3e-15, -3e-15, 2e-14,
                                                  -2e-14]))) * gp[j]
            slack[k] = (1.0 - float(rng.choice([0.0, 5e-15, 1e-14, 2e-14]))) * gp[k]
            ties += 1
        got = _ratio_test(gp, slack, h, work)
        want = _ratio_test_loop(gp, slack, h, work)
        assert got[1] == want[1]
        assert got[0] == want[0]
        blocked += want[1] >= 0
    assert blocked > 500 and ties > 800
