import numpy as np
import pytest

from scmpc.qp import (QpResult, _active_set_core, _kkt_step, _ratio_test,
                       solve_qp)


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


def _active_set_core_confirming(H, g, G, h, x, max_iter):
    """The working-set loop that re-solves after an unblocked step to find
    p = 0 before it tests the multipliers, kept as the reference."""
    m = G.shape[0]
    work: list[int] = []
    it = 0
    while it < max_iter:
        it += 1
        p, mu = _kkt_step(H, g, G, x, work)
        step_scale = 1e-11 * (1.0 + float(np.max(np.abs(x))))
        if float(np.max(np.abs(p), initial=0.0)) <= step_scale:
            if mu.size == 0 or float(np.min(mu)) >= -1e-10:
                lam = np.zeros(m)
                if work:
                    lam[work] = np.maximum(mu, 0.0)
                return x, work, lam, it, "optimal"
            work.pop(int(np.argmin(mu)))
            continue
        alpha, blocker = _ratio_test(G @ p, h - G @ x, h, work)
        x = x + alpha * p
        if blocker >= 0:
            work.append(blocker)
    lam = np.zeros(m)
    if work:
        lam[work] = np.maximum(_kkt_step(H, g, G, x, work)[1], 0.0)
    return x, work, lam, it, "max_iter"


def _reference_states(H, g, G, h, x0, max_iter):
    """The reference's result after each of its iterations, and whether
    that iteration only confirmed an unblocked step that came before it."""
    states, confirming = [], []
    prev, before = (x0, []), None
    for cap in range(1, max_iter + 1):
        res = _active_set_core_confirming(H, g, G, h, x0, cap)
        # Iteration cap confirms when iteration cap - 1 moved x and left
        # the working set as it was.
        confirming.append(before is not None and prev[1] == before[1]
                          and not np.array_equal(prev[0], before[0]))
        states.append(res)
        before, prev = prev, (res[0], res[1])
        if res[4] == "optimal":
            break
    return states, confirming


def test_exit_on_unblocked_step_matches_confirming_loop():
    # The exit skips exactly the reference's confirming KKT solves. With
    # the same number of other solves, the iterate and the working set
    # are the same, and the multipliers differ by roundoff only.
    rng = np.random.default_rng(27)
    drops = capped = 0
    for _ in range(400):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(5, 30))
        a = rng.normal(size=(n, n))
        hessian = a.T @ a + n * np.eye(n)
        gradient = rng.normal(size=n) * 3.0
        rows = rng.normal(size=(m, n))
        rhs = np.abs(rng.normal(size=m)) + 1e-3  # x = 0 is feasible
        x0 = np.zeros(n)
        states, confirming = _reference_states(hessian, gradient, rows, rhs,
                                               x0, 500)
        solves = np.cumsum([not c for c in confirming])
        # A confirming solve that found a negative multiplier: the exit
        # takes the drop path.
        drops += sum(c and s[1] != p[1] for c, s, p in
                     zip(confirming[1:], states[1:], states))
        want = states[-1]
        assert want[4] == "optimal"
        for cap in (1, 2, 3, 500):
            got = _active_set_core(hessian, gradient, rows, rhs, x0, cap)
            if cap < solves[-1]:
                # The last reference state with as many solves that are
                # not confirmations.
                want = states[int(np.flatnonzero(solves == cap)[-1])]
                capped += 1
            else:
                want = states[-1]
                assert got[3] == solves[-1]
            assert got[4] == want[4]
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]
            np.testing.assert_allclose(got[2], want[2], rtol=0.0, atol=1e-10)
    assert drops >= 20 and capped > 600


def _random_qp_and_cold_solve(rng, origin_feasible=False):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 21))
    hessian, gradient, rows, rhs = _random_feasible_qp(rng, n, m, 3.0)
    if origin_feasible:
        rhs = np.abs(rng.normal(size=m)) + 1e-3
    cold = solve_qp(hessian, gradient, rows, rhs)
    return (hessian, gradient, rows, rhs), cold


def _assert_same_result(got, want):
    assert got.status == want.status
    np.testing.assert_array_equal(got.x, want.x)
    assert got.active_set == want.active_set
    np.testing.assert_array_equal(got.multipliers, want.multipliers)
    assert got.max_violation == want.max_violation


def test_guessing_the_active_set_solves_in_one_iteration():
    # From a feasible start the cold solve meets its working rows to
    # roundoff, so the guess returns the same x. After Phase 1 the cold
    # solve keeps those rows at Phase 1's residual (at most tol), where the
    # guess meets them exactly: x then agrees to the tolerance's level.
    rng = np.random.default_rng(31)
    nondegenerate = active = 0
    for trial in range(400):
        origin_feasible = trial % 2 == 0
        qp, cold = _random_qp_and_cold_solve(rng, origin_feasible)
        hessian, gradient, rows, rhs = qp
        assert cold.status == "optimal"
        res = solve_qp(*qp, working_set=cold.active_set)
        assert res.status == cold.status and res.iterations == 1
        assert res.active_set == cold.active_set
        np.testing.assert_allclose(res.x, cold.x, rtol=0.0,
                                   atol=1e-10 if origin_feasible else 1e-8)
        lam = res.multipliers
        assert np.max(np.abs(hessian @ res.x + gradient + rows.T @ lam)) <= 1e-8
        assert np.max(rows @ res.x - rhs) <= 1e-8 and np.min(lam) >= 0.0
        # Nondegenerate: independent active rows, each with a multiplier
        # bounded away from zero, and every other row strictly inactive.
        work = cold.active_set
        slack = rhs - rows @ cold.x
        if (origin_feasible and np.all(cold.multipliers[work] > 1e-6)
                and np.all(np.delete(slack, work) > 1e-6)
                and np.linalg.matrix_rank(rows[work]) == len(work)):
            np.testing.assert_allclose(lam, cold.multipliers, rtol=0.0,
                                       atol=1e-8)
            nondegenerate += len(work) > 0
        active += len(work) > 0
    assert nondegenerate > 120 and active > 250


def test_wrong_guess_returns_the_cold_result():
    rng = np.random.default_rng(32)
    extra = dropped = duplicated = 0
    for _ in range(400):
        qp, cold = _random_qp_and_cold_solve(rng)
        hessian, gradient, rows, rhs = qp
        work = cold.active_set
        slack = rhs - rows @ cold.x
        guesses = []
        loose = [i for i in range(len(rhs)) if i not in work and slack[i] > 1e-3]
        if loose:
            guesses.append(work + [int(rng.choice(loose))])
            extra += 1
        if work and np.max(cold.multipliers) > 1e-6:
            binding = int(np.argmax(cold.multipliers))
            guesses.append([i for i in work if i != binding])
            dropped += 1
        if work:
            guesses.append(work + [work[0]])
            duplicated += 1
        for guess in guesses:
            res = solve_qp(*qp, working_set=guess)
            _assert_same_result(res, cold)
            # The failed guess is one KKT solve of its own.
            assert res.iterations == cold.iterations + 1
    assert extra > 300 and dropped > 250 and duplicated > 250
