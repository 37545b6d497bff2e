import numpy as np
import pytest

from scmpc.qp import QpResult, solve_qp


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
    # One slack row, x1 + x2 <= 10: the minimizer is x = -H^-1 g.
    hessian = np.diag([2.0, 4.0])
    gradient = np.array([-2.0, -8.0])
    res = solve_qp(hessian, gradient, np.ones((1, 2)), np.array([10.0]))
    np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-10)
    assert res.status == "optimal" and res.active_set == []


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
    assert np.max(rows @ res.x - rhs) > 0.5


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


def test_zero_iteration_cap_returns_the_start_point():
    # No KKT solve is made, so no working set has multipliers yet.
    rng = np.random.default_rng(23)
    hessian, gradient, rows, rhs = _random_feasible_qp(rng, 4, 12)
    start = rng.normal(size=4)
    for kwargs, x in [({}, np.zeros(4)), ({"x0": start}, start),
                      ({"working_set": [0, 1]}, np.zeros(4))]:
        res = solve_qp(hessian, gradient, rows, rhs, max_iter=0, **kwargs)
        assert res.status == "max_iter"
        assert res.iterations == 0
        assert res.active_set == []
        np.testing.assert_array_equal(res.multipliers, np.zeros(12))
        np.testing.assert_array_equal(res.x, x)


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


def _nondegenerate(rows, rhs, res):
    """Independent active rows, each with a multiplier bounded away from
    zero, and every other row strictly inactive."""
    work = res.active_set
    slack = rhs - rows @ res.x
    return (np.all(res.multipliers[work] > 1e-6)
            and np.all(np.delete(slack, work) > 1e-6)
            and np.linalg.matrix_rank(rows[work]) == len(work))


def test_guessing_the_active_set_solves_in_one_iteration():
    # The cold solve and the guess both end on one KKT solve on the same
    # working rows, so x agrees to roundoff.
    rng = np.random.default_rng(31)
    nondegenerate = active = 0
    for trial in range(400):
        qp, cold = _random_qp_and_cold_solve(rng, trial % 2 == 0)
        hessian, gradient, rows, rhs = qp
        assert cold.status == "optimal"
        res = solve_qp(*qp, working_set=cold.active_set)
        assert res.status == cold.status and res.iterations == 1
        assert res.active_set == cold.active_set
        np.testing.assert_allclose(res.x, cold.x, rtol=0.0, atol=1e-10)
        lam = res.multipliers
        assert np.max(np.abs(hessian @ res.x + gradient + rows.T @ lam)) <= 1e-8
        assert np.max(rows @ res.x - rhs) <= 1e-8 and np.min(lam) >= 0.0
        if _nondegenerate(rows, rhs, cold):
            np.testing.assert_allclose(lam, cold.multipliers, rtol=0.0,
                                       atol=1e-8)
            nondegenerate += len(cold.active_set) > 0
        active += len(cold.active_set) > 0
    assert nondegenerate > 120 and active > 250


def test_wrong_guess_returns_the_cold_result():
    # Loose guessed rows leave through their negative multipliers, missing
    # rows enter as violated rows, and a guess with a repeated row or with
    # more rows than unknowns is replaced by the empty set.
    rng = np.random.default_rng(32)
    kinds = dict.fromkeys(("extra", "dropped", "repeated", "oversized"), 0)
    nondegenerate = 0
    for _ in range(400):
        qp, cold = _random_qp_and_cold_solve(rng)
        hessian, gradient, rows, rhs = qp
        n, m = len(gradient), len(rhs)
        work = cold.active_set
        slack = rhs - rows @ cold.x
        guesses = []
        loose = [i for i in range(m) if i not in work and slack[i] > 1e-3]
        if loose:
            guesses.append(("extra", work + [int(rng.choice(loose))]))
        if work and np.max(cold.multipliers) > 1e-6:
            binding = int(np.argmax(cold.multipliers))
            guesses.append(("dropped", [i for i in work if i != binding]))
        if work:
            guesses.append(("repeated", work + [work[0]]))
        if m > n:
            guesses.append(("oversized",
                            rng.choice(m, size=n + 1, replace=False).tolist()))
        check_multipliers = _nondegenerate(rows, rhs, cold)
        for kind, guess in guesses:
            res = solve_qp(*qp, working_set=guess)
            assert res.status == cold.status
            assert res.active_set == cold.active_set
            np.testing.assert_allclose(res.x, cold.x, rtol=0.0, atol=1e-10)
            if check_multipliers:
                np.testing.assert_allclose(res.multipliers, cold.multipliers,
                                           rtol=0.0, atol=1e-8)
                nondegenerate += 1
            kinds[kind] += 1
    assert kinds["extra"] > 300 and kinds["dropped"] > 250
    assert kinds["repeated"] > 250 and kinds["oversized"] > 200
    assert nondegenerate > 300


def test_repeated_binding_row():
    # min 0.5 |x - (2, 2, 0)|^2 with x1 <= 1, a copy of that row (exact or
    # scaled) and x2 <= 1. A start set holding both copies has a singular
    # KKT system and is replaced by the empty set; the working set keeps
    # one copy.
    hessian, gradient = np.eye(3), -np.array([2.0, 2.0, 0.0])
    solution = np.array([1.0, 1.0, 0.0])
    for scale in (1.0, 0.7):
        rows = np.array([[1.0, 0.0, 0.0], [scale, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rhs = np.array([1.0, scale, 1.0])
        for start in ({}, {"x0": solution}, {"working_set": [0, 1, 2]},
                      {"working_set": [0, 0, 2]}):
            res = solve_qp(hessian, gradient, rows, rhs, **start)
            assert res.status == "optimal"
            np.testing.assert_allclose(res.x, solution, rtol=0.0, atol=1e-12)
            work = res.active_set
            assert len(work) == 2 and 2 in work
            lam = res.multipliers
            assert np.min(lam) >= 0.0
            assert np.max(np.abs(hessian @ res.x + gradient + rows.T @ lam)) <= 1e-12


def test_binding_row_that_combines_two_others():
    # Row c = 0.3 a + 0.2 b. Aiming at (3, 3, 0), the loop adds a and b
    # first; c is then violated but in their span, so the working rows
    # leave before c can enter. The solution has c alone active.
    hessian, gradient = np.eye(3), -np.array([3.0, 3.0, 0.0])
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.2, 0.0]])
    rhs = np.array([1.0, 1.0, 0.15])
    res = solve_qp(hessian, gradient, rows, rhs)
    assert res.status == "optimal" and res.active_set == [2]
    lam = res.multipliers[2]
    assert lam == pytest.approx(1.35 / 0.13, abs=1e-12)
    np.testing.assert_allclose(res.x, [3.0 - 0.3 * lam, 3.0 - 0.2 * lam, 0.0],
                               rtol=0.0, atol=1e-12)
    # With c's rhs at 0.5 all three rows bind at (1, 1, 0). The start set
    # taken there is dependent and gives way to the empty set, which costs
    # its one failed KKT solve and nothing else.
    vertex = np.array([1.0, 1.0, 0.0])
    rhs[2] = rows[2] @ vertex
    cold = solve_qp(hessian, gradient, rows, rhs)
    res = solve_qp(hessian, gradient, rows, rhs, x0=vertex)
    assert res.status == cold.status == "optimal"
    np.testing.assert_allclose(res.x, vertex, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(res.x, cold.x)
    assert res.active_set == cold.active_set
    assert res.iterations == cold.iterations + 1


def test_rows_inconsistent_only_in_combination():
    # x1 <= -1, x2 <= -1 and x1 + x2 >= -1; then x1 + d x2 <= -1,
    # x1 - d x2 <= -1 and x1 >= 1, where the first two meet at a vertex
    # whose KKT system grows ill-conditioned as d shrinks. Any two rows of
    # either set are consistent.
    sets = [(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
             np.array([-1.0, -1.0, 1.0]))]
    for d in (1e-3, 1e-5, 1e-7):
        sets.append((np.array([[1.0, d], [1.0, -d], [-1.0, 0.0]]),
                     -np.ones(3)))
    rng = np.random.default_rng(33)
    for rows, rhs in sets:
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            res = solve_qp(a.T @ a + np.eye(2), rng.normal(size=2) * 3.0,
                           rows, rhs)
            assert res.status == "infeasible"
            assert res.active_set == [] and np.max(rows @ res.x - rhs) > 0.0


def _near_parallel_solves(seed, count):
    """(rows, rhs, result) of count random QPs whose rows are nearly
    parallel to one direction, with random signs: badly conditioned KKT
    systems and solutions far out."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n + 1, 3 * n + 2))
        rows = rng.normal(size=n) + 10.0 ** rng.uniform(-7, 0) * rng.normal(size=(m, n))
        rows *= rng.choice([-1.0, 1.0], size=(m, 1))
        a = rng.normal(size=(n, n))
        rhs = rng.normal(size=m)
        yield rows, rhs, solve_qp(a.T @ a + np.eye(n), rng.normal(size=n) * 10.0,
                                  rows, rhs)


def test_optimal_means_every_row_is_met():
    # Whatever the status, an optimal one has every row, working rows
    # included, within tol.
    optimal = 0
    for rows, rhs, res in _near_parallel_solves(37, 1000):
        assert len(res.active_set) <= rows.shape[1]
        if res.status == "optimal":
            assert np.max(rows @ res.x - rhs) <= 1e-8
            optimal += 1
    assert optimal > 300


def test_refinement_rescues_most_roundoff_exits():
    # Roundoff can leave a working row violated beyond tol where no other
    # row is. One refinement KKT solve on the final working set then ends
    # optimal in most cases; without it 141 of these 1,000 QPs ended
    # max_iter. A max_iter exit still has a working row violated, and
    # every optimal exit meets every row within tol.
    exits = optimal = 0
    for rows, rhs, res in _near_parallel_solves(38, 1000):
        viol = rows @ res.x - rhs
        if res.status == "optimal":
            assert np.max(viol) <= 1e-8 and np.min(res.multipliers) >= 0.0
            optimal += 1
        elif res.status == "max_iter":
            assert np.max(viol[res.active_set]) > 1e-8
            exits += 1
    assert exits < 90 and optimal > 440


def test_start_on_the_active_rows_solves_in_one_iteration():
    rng = np.random.default_rng(34)
    confirmed = 0
    for _ in range(200):
        qp, cold = _random_qp_and_cold_solve(rng)
        hessian, gradient, rows, rhs = qp
        if not cold.active_set or not _nondegenerate(rows, rhs, cold):
            continue
        res = solve_qp(*qp, x0=cold.x)
        assert res.status == "optimal" and res.iterations == 1
        assert res.active_set == cold.active_set
        np.testing.assert_allclose(res.x, cold.x, rtol=0.0, atol=1e-10)
        confirmed += 1
    assert confirmed > 80


def test_start_at_an_overdetermined_vertex_is_ignored():
    # At x0 more rows are tight than there are unknowns, so the start set
    # is replaced by the empty set before any KKT solve.
    rng = np.random.default_rng(35)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 20))
        a = rng.normal(size=(n, n))
        hessian = a.T @ a + n * np.eye(n)
        gradient = rng.normal(size=n) * 3.0
        rows = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        rhs = rows @ x0 + np.abs(rng.normal(size=m)) + 1e-3
        tight = rng.choice(m, size=int(rng.integers(n + 1, m + 1)),
                           replace=False)
        rhs[tight] = rows[tight] @ x0
        cold = solve_qp(hessian, gradient, rows, rhs)
        res = solve_qp(hessian, gradient, rows, rhs, x0=x0)
        _assert_same_result(res, cold)
        assert np.max(rows @ res.x - rhs) == np.max(rows @ cold.x - rhs)
        assert res.iterations == cold.iterations


def test_start_violation_below_tol_is_not_kept():
    # x0 violates one row by 5e-9, within tol, and the cost pulls across
    # that row. The row starts in the working set and is then met exactly,
    # not at the start's residual.
    rng = np.random.default_rng(36)
    kept = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 21))
        a = rng.normal(size=(n, n))
        hessian = a.T @ a + n * np.eye(n)
        rows = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        rhs = rows @ x0 + np.abs(rng.normal(size=m)) + 0.5
        i = int(rng.integers(m))
        rhs[i] = rows[i] @ x0 - 5e-9
        gradient = -hessian @ (x0 + rows[i]) + rng.normal(size=n) * 0.1
        res = solve_qp(hessian, gradient, rows, rhs, x0=x0)
        assert res.status == "optimal"
        work = res.active_set
        assert np.all(np.abs(rows[work] @ res.x - rhs[work])
                      <= 1e-12 * (1.0 + np.abs(rhs[work])))
        kept += i in work
    assert kept > 150
