import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scmpc.mpc
from conftest import nominal_scenario
from scmpc import (ConfigError, MpcConfig, Obstacle, build_qcqp,
                   discretize_double_integrator, run_closed_loop, solve_sqp,
                   terminal_data)
from scmpc.cli import _build_scenario, load_config
from scmpc.mpc import (LinearMpc, NonlinearMpc, _RolloutProblem,
                       estimate_flops_ip, estimate_flops_sqp,
                       prediction_matrices)

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "nominal.json"

LOOSE = dict(v_min=[-1e9, -1e9], v_max=[1e9, 1e9],
             pos_min=[-1e9, -1e9], pos_max=[1e9, 1e9])


def _setup(cfg):
    model = discretize_double_integrator(cfg.ts)
    return model, terminal_data(model, cfg.Q, cfg.R)


def test_config_validation():
    with pytest.raises(ConfigError):
        MpcConfig(horizon=0)
    with pytest.raises(ConfigError):
        MpcConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        MpcConfig(gamma=1.0001)
    with pytest.raises(ConfigError):
        MpcConfig(ts=-0.1)
    with pytest.raises(ConfigError):
        MpcConfig(v_min=[1.0, 1.0], v_max=[1.0, 1.0])
    with pytest.raises(ConfigError):
        MpcConfig(pos_min=[5.0, 0.0], pos_max=[1.0, 1.0])
    with pytest.raises(ConfigError):
        MpcConfig(R=np.zeros((2, 2)))


def test_constraint_row_counts():
    cfg = MpcConfig(horizon=8, constraint_horizon=10)
    model, td = _setup(cfg)
    obstacles = [Obstacle(3.5, 3.5, 1.5)]
    prob = build_qcqp(np.array([7.0, -0.5, 7.0, 0.0]), cfg, model, td, obstacles)
    n, nc = 8, 10
    assert prob.lin_rows.shape[0] == 2 * 2 * n + 2 * 2 * n + (nc + 1) * (2 * 2 + 2 * 2)
    assert len(prob.quad_rows) == n * len(obstacles)
    assert prob.quad_rows.map_next.shape == (n, 2, 2 * n)
    assert prob.quad_rows.off_prev.shape == (n, 2)
    # positive-definite cost in the condensed form
    np.testing.assert_allclose(prob.hessian, prob.hessian.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(prob.hessian)) > 0.0
    # two obstacles double the quadratic rows
    prob = build_qcqp(np.array([7.0, -0.5, 7.0, 0.0]), cfg, model, td,
                      obstacles + [Obstacle(-2.0, 0.0, 0.5)])
    assert len(prob.quad_rows) == 2 * n
    assert prob.quad_rows.map_prev.shape == (2 * n, 2, 2 * n)
    assert prob.quad_rows.decay.shape == (2 * n,)


def _reference_rows(cfg, model, z0, obstacles, mode):
    """Per-row barrier data straight from the prediction maps, in
    obstacle-major order: (map_next, off_next, map_prev, off_prev, center,
    radius_sq, decay) for each row."""
    n, nv = cfg.horizon, 2 * cfg.horizon
    F, G = prediction_matrices(model, n)
    rows = []
    for obs in obstacles:
        for k in range(n):
            pos = [4 * k, 4 * k + 2]
            if mode == "euclid":
                prev = (np.zeros((2, nv)), np.zeros(2), 0.0)
            elif k == 0:
                prev = (np.zeros((2, nv)), z0[[0, 2]], 1.0 - cfg.gamma)
            else:
                before = [4 * k - 4, 4 * k - 2]
                prev = (G[before], F[before] @ z0, 1.0 - cfg.gamma)
            rows.append((G[pos], F[pos] @ z0, prev[0], prev[1],
                         np.array([obs.x, obs.y]), obs.radius**2, prev[2]))
    return rows


def _reference_value(row, v):
    """Row value by the per-row formula."""
    map_next, off_next, map_prev, off_prev, center, radius_sq, decay = row
    d1 = off_next + map_next @ v - center
    out = float(d1 @ d1) - radius_sq
    if decay != 0.0:
        d0 = off_prev + map_prev @ v - center
        out -= decay * (float(d0 @ d0) - radius_sq)
    return out


def _reference_gradient(row, v):
    """Row gradient by the per-row formula."""
    map_next, off_next, map_prev, off_prev, center, radius_sq, decay = row
    d1 = off_next + map_next @ v - center
    grad = 2.0 * (map_next.T @ d1)
    if decay != 0.0:
        d0 = off_prev + map_prev @ v - center
        grad -= 2.0 * decay * (map_prev.T @ d0)
    return grad


def test_stacked_barrier_rows_match_per_row_formulas():
    # Summation order differs from the per-row formulas, so agreement is
    # to 1e-12 relative to the largest reference entry, not bit for bit.
    rtol = 1e-12
    rng = np.random.default_rng(24)
    obstacles = [Obstacle(3.5, 3.5, 1.5), Obstacle(-2.0, 0.5, 0.5)]
    for mode in ("cbf", "euclid"):
        for _ in range(20):
            cfg = MpcConfig(horizon=int(rng.integers(1, 10)),
                            gamma=float(rng.uniform(0.05, 1.0)), **LOOSE)
            model, td = _setup(cfg)
            z0 = rng.uniform(-4.0, 4.0, size=4)
            block = build_qcqp(z0, cfg, model, td, obstacles,
                               mode=mode).quad_rows
            ref = _reference_rows(cfg, model, z0, obstacles, mode)
            assert len(block) == len(ref) == 2 * cfg.horizon
            if mode == "cbf":
                assert not np.any(block.map_prev[0])
                assert not np.any(block.map_prev[cfg.horizon])
            else:
                assert not np.any(block.decay)
            for _ in range(5):
                v = rng.uniform(-3.0, 3.0, size=2 * cfg.horizon)
                want = np.array([_reference_value(r, v) for r in ref])
                got = block.value(v)
                assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
                want = np.array([_reference_gradient(r, v) for r in ref])
                got = block.gradient(v)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_row_curvature_matches_finite_differences_of_gradient():
    # Each row gradient is affine in v, so central differences of it are
    # exact up to roundoff and give the row's constant Hessian.
    rng = np.random.default_rng(26)
    obstacles = [Obstacle(3.5, 3.5, 1.5), Obstacle(-2.0, 0.5, 0.5)]
    step = 1e-3
    for mode in ("cbf", "euclid"):
        cfg = MpcConfig(horizon=5, gamma=0.3, **LOOSE)
        model, td = _setup(cfg)
        rows = build_qcqp(rng.uniform(-4.0, 4.0, size=4), cfg, model, td,
                          obstacles, mode=mode).quad_rows
        nv = 2 * cfg.horizon
        v = rng.uniform(-3.0, 3.0, size=nv)
        fd = np.empty((len(rows), nv, nv))
        for i in range(nv):
            e = np.zeros(nv)
            e[i] = step
            fd[:, :, i] = (rows.gradient(v + e) - rows.gradient(v - e)) / (2 * step)
        for k in range(len(rows)):
            block = rows.curvature(np.eye(len(rows))[k])
            assert block.shape == (nv, nv)
            np.testing.assert_allclose(block, fd[k], rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(fd[k])))
        weights = rng.uniform(0.0, 2.0, size=len(rows))
        np.testing.assert_allclose(rows.curvature(weights),
                                   np.einsum("k,kij->ij", weights, fd),
                                   rtol=0.0, atol=1e-9 * np.max(np.abs(fd)))


def _recorded_qp_inputs(monkeypatch, problem, warm_start=None):
    """solve_sqp's result and the (hessian, gradient, x0) of each QP."""
    calls = []
    solve_qp = scmpc.mpc.solve_qp

    def recording(hessian, gradient, rows, rhs, x0=None, **kwargs):
        calls.append((hessian, gradient, x0))
        return solve_qp(hessian, gradient, rows, rhs, x0=x0, **kwargs)

    monkeypatch.setattr(scmpc.mpc, "solve_qp", recording)
    return solve_sqp(problem, warm_start=warm_start), calls


def test_zero_multipliers_keep_the_cost_model(monkeypatch):
    cfg = MpcConfig(horizon=8)
    model, td = _setup(cfg)
    z0 = np.array([7.0, -0.5, 7.0, 0.0])
    # An obstacle far off the path: its rows never bind, so every QP gets
    # the cost Hessian and linear term themselves.
    far = build_qcqp(z0, cfg, model, td, [Obstacle(-8.0, 8.0, 0.5)])
    res, calls = _recorded_qp_inputs(monkeypatch, far)
    assert res.status == "optimal" and len(calls) >= 2
    for hessian, gradient, _ in calls:
        assert np.array_equal(hessian, far.hessian)
        assert np.array_equal(gradient, far.gradient)
    v = np.linspace(-1.0, 1.0, 2 * cfg.horizon)
    c = far.quad_rows.value(v)
    for lam in (None, np.zeros(len(far.quad_rows))):
        hessian, gradient, _ = far.linearize(v, c, lam)
        assert hessian is far.hessian and gradient is far.gradient
    # The obstacle on the path binds: after the first QP the model has the
    # Lagrangian Hessian and still the cost gradient at the iterate.
    near = build_qcqp(z0, cfg, model, td, [Obstacle(3.5, 3.5, 1.5)])
    res, calls = _recorded_qp_inputs(monkeypatch, near)
    assert res.status == "optimal"
    assert np.array_equal(calls[0][0], near.hessian)
    assert np.array_equal(calls[0][1], near.gradient)
    changed = [call for call in calls[1:]
               if not np.array_equal(call[0], near.hessian)]
    assert changed
    for hessian, gradient, v in changed:
        vals = np.linalg.eigvalsh(0.5 * (hessian + hessian.T))
        assert vals[0] >= (1e-3 - 1e-9) * np.max(np.abs(vals))
        cost_grad = near.hessian @ v + near.gradient
        np.testing.assert_allclose(hessian @ v + gradient, cost_grad, rtol=0.0,
                                   atol=1e-9 * (1.0 + np.max(np.abs(cost_grad))))


def test_startup_transient_converges_in_few_iterations(monkeypatch):
    statuses = []
    solve = LinearMpc.solve

    def recording(controller, z0):
        res = solve(controller, z0)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(LinearMpc, "solve", recording)
    log = run_closed_loop(nominal_scenario(duration=1.0))
    assert len(log.records) == 20
    assert statuses == ["optimal"] * 20
    assert max(r.sqp_iterations for r in log.records) <= 8
    cfg = load_config(CONFIG)
    for gamma in (0.3, 0.5, 0.7, 0.9, 1.0):
        statuses.clear()
        scenario = _build_scenario(cfg, gamma, None, None, cfg["seed"])
        log = run_closed_loop(replace(scenario, duration=10.0))
        assert len(statuses) == len(log.records) == 200
        assert "max_iter" not in statuses


def test_iterate_at_obstacle_center_uses_fallback_direction():
    # The zero warm start predicts the first position exactly on the
    # center, where the k = 0 barrier row has a zero gradient.
    cfg = MpcConfig(horizon=8, **LOOSE)
    model, td = _setup(cfg)
    z0 = np.array([1.0, -4.0, 0.0, 0.0])
    probe = build_qcqp(z0, cfg, model, td, [Obstacle(5.0, 5.0, 0.1)])
    center = probe.quad_rows.off_next[0]
    prob = build_qcqp(z0, cfg, model, td, [Obstacle(center[0], center[1], 0.1)])
    v0 = np.zeros(2 * cfg.horizon)
    assert prob.quad_rows.value(v0)[0] < 0.0
    assert not np.any(prob.quad_rows.gradient(v0)[0])
    res = solve_sqp(prob, warm_start=v0)
    assert res.status != "infeasible"
    assert np.all(np.isfinite(res.v_sequence))


def test_single_step_closed_form():
    cfg = MpcConfig(horizon=1, constraint_horizon=0, **LOOSE)
    model, td = _setup(cfg)
    z0 = np.array([1.0, -0.3, 2.0, 0.4])
    res = solve_sqp(build_qcqp(z0, cfg, model, td, []))
    assert res.status == "optimal"
    v_star = -np.linalg.solve(cfg.R + model.B.T @ td.Qbar @ model.B,
                              model.B.T @ td.Qbar @ model.A @ z0)
    np.testing.assert_allclose(res.v_sequence[0], v_star, atol=1e-9)
    # reported cost includes the current stage term
    z1 = model.A @ z0 + model.B @ v_star
    expect = float(z0 @ cfg.Q @ z0 + v_star @ cfg.R @ v_star + z1 @ td.Qbar @ z1)
    assert res.cost == pytest.approx(expect, rel=1e-12)


def test_out_of_box_state_flags_infeasible():
    cfg = MpcConfig()
    model, td = _setup(cfg)
    prob = build_qcqp(np.array([20.0, 0.0, 0.0, 0.0]), cfg, model, td, [])
    assert prob.infeasible
    res = solve_sqp(prob)
    assert res.status == "infeasible"


def _stacked_kkt_oracle(cfg, model, td, z0):
    """Solve the same horizon problem in the sparse stacked form
    (states and inputs as variables, dynamics as equality rows)."""
    n = cfg.horizon
    nz, nu = 4, 2
    dim = n * nz + n * nu
    hess = np.zeros((dim, dim))
    for k in range(n):
        blk = cfg.Q if k < n - 1 else td.Qbar
        hess[k * nz:(k + 1) * nz, k * nz:(k + 1) * nz] = 2.0 * blk
        j = n * nz + k * nu
        hess[j:j + nu, j:j + nu] = 2.0 * cfg.R
    eq = np.zeros((n * nz, dim))
    rhs = np.zeros(n * nz)
    for k in range(n):
        rows = slice(k * nz, (k + 1) * nz)
        eq[rows, n * nz + k * nu:n * nz + (k + 1) * nu] = model.B
        eq[rows, k * nz:(k + 1) * nz] = -np.eye(nz)
        if k == 0:
            rhs[rows] = -model.A @ z0
        else:
            eq[rows, (k - 1) * nz:k * nz] = model.A
    kkt = np.zeros((dim + n * nz, dim + n * nz))
    kkt[:dim, :dim] = hess
    kkt[:dim, dim:] = eq.T
    kkt[dim:, :dim] = eq
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(dim), rhs]))
    return sol[n * nz:dim].reshape(n, nu)


def test_unconstrained_matches_stacked_kkt_oracle():
    cfg = MpcConfig(horizon=8, constraint_horizon=0, **LOOSE)
    model, td = _setup(cfg)
    rng = np.random.default_rng(20)
    for _ in range(10):
        z0 = rng.uniform(-4, 4, size=4)
        res = solve_sqp(build_qcqp(z0, cfg, model, td, []))
        assert res.status == "optimal"
        oracle = _stacked_kkt_oracle(cfg, model, td, z0)
        np.testing.assert_allclose(res.v_sequence, oracle, atol=1e-6)


def test_distant_obstacle_leaves_solution_unchanged():
    cfg = MpcConfig(horizon=8, constraint_horizon=0, **LOOSE)
    model, td = _setup(cfg)
    z0 = np.array([2.0, -0.5, 1.0, 0.3])
    free = solve_sqp(build_qcqp(z0, cfg, model, td, []))
    guarded = solve_sqp(build_qcqp(z0, cfg, model, td,
                                   [Obstacle(500.0, 500.0, 1.5)]))
    assert guarded.status == "optimal"
    np.testing.assert_allclose(guarded.v_sequence, free.v_sequence, atol=1e-6)


def test_degenerate_bounds_with_blocked_path_infeasible():
    # Near-zero input authority while coasting into the obstacle.
    cfg = MpcConfig(horizon=8, constraint_horizon=0, gamma=0.1,
                    v_min=[-1e-9, -1e-9], v_max=[1e-9, 1e-9])
    model, td = _setup(cfg)
    z0 = np.array([5.2, -2.0, 3.5, 0.0])  # heading at the obstacle at 2 m/s
    prob = build_qcqp(z0, cfg, model, td, [Obstacle(3.5, 3.5, 1.5)])
    res = solve_sqp(prob)
    assert res.status == "infeasible"


def test_prediction_satisfies_dynamics():
    cfg = MpcConfig(horizon=8)
    model, td = _setup(cfg)
    z0 = np.array([7.0, -0.5, 7.0, 0.0])
    res = solve_sqp(build_qcqp(z0, cfg, model, td, [Obstacle(3.5, 3.5, 1.5)]))
    z = res.z_prediction
    for k in range(cfg.horizon):
        step = model.A @ z[k] + model.B @ res.v_sequence[k]
        assert np.max(np.abs(z[k + 1] - step)) <= 1e-10


def test_decay_chain_on_predictions():
    cfg = MpcConfig(horizon=8, gamma=0.1, Q=np.diag([1, 0.08, 1, 0.08]),
                    R=np.diag([0.05, 0.05]), v_min=[-50, -50], v_max=[50, 50])
    model, td = _setup(cfg)
    obs = Obstacle(3.5, 3.5, 1.5)
    z0 = np.array([6.0, -1.5, 6.0, -1.5])
    res = solve_sqp(build_qcqp(z0, cfg, model, td, [obs]))
    assert res.status == "optimal"
    h = [(z[0] - obs.x) ** 2 + (z[2] - obs.y) ** 2 - obs.radius**2
         for z in res.z_prediction]
    for k in range(1, len(h)):
        assert h[k] >= (1.0 - cfg.gamma) ** k * h[0] - 1e-6 * k


def test_prediction_matrices_shapes():
    model = discretize_double_integrator(0.05)
    f, g = prediction_matrices(model, 5)
    assert f.shape == (20, 4)
    assert g.shape == (20, 10)
    np.testing.assert_allclose(f[:4], model.A, atol=1e-15)
    np.testing.assert_allclose(g[:4, :2], model.B, atol=1e-15)


def test_solver_tracks_grid_search_oracle_sample():
    # A slice of the full acceptance sweep; keeps this module quick.
    from oracles import grid_search_best, random_small_instance
    rng = np.random.default_rng(21)
    for _ in range(10):
        prob = random_small_instance(rng)
        res = solve_sqp(prob)
        best = grid_search_best(prob)
        if res.status == "infeasible":
            assert not np.isfinite(best)
        else:
            assert np.isfinite(best)
            assert res.cost <= best + 1e-4


def test_flops_examples():
    assert estimate_flops_ip(8, 2, 10) == 10 * ((2.0 / 3.0) * 16**3 + 2 * 16**2)
    assert estimate_flops_ip(1, 1, 1) == pytest.approx(8.0 / 3.0, rel=1e-15)
    # doubling the horizon scales the cubic term by 8
    lead = estimate_flops_ip(16, 2, 1) - 2 * (32**2)
    assert lead == pytest.approx(8 * ((2.0 / 3.0) * 16**3), rel=1e-12)
    assert estimate_flops_sqp(1, 8, 2, 10) == estimate_flops_ip(8, 2, 10)
    assert estimate_flops_sqp(5, 8, 2, 10) == 5 * estimate_flops_ip(8, 2, 10)
    assert estimate_flops_sqp(6, 8, 2, 10) > estimate_flops_sqp(5, 8, 2, 10)
    assert estimate_flops_ip(10, 2, 10) > estimate_flops_ip(8, 2, 10)
    assert estimate_flops_ip(8, 3, 10) > estimate_flops_ip(8, 2, 10)
    assert estimate_flops_ip(8, 2, 11) > estimate_flops_ip(8, 2, 10)
    with pytest.raises(ConfigError):
        estimate_flops_ip(0, 2, 10)
    with pytest.raises(ConfigError):
        estimate_flops_sqp(0, 8, 2, 10)


def test_nmpc_regulates_without_obstacle():
    cfg = MpcConfig()
    ctrl = NonlinearMpc(cfg, obstacles=(), goal=(0.0, 0.0))
    x = np.array([7.0, 7.0, math.pi])
    steps = int(round(25.0 / cfg.ts))
    from scmpc.model import rk4_step, unicycle_rhs
    for _ in range(steps):
        res = ctrl.solve(x)
        assert res.status != "infeasible"
        u = res.v_sequence[0]
        x = rk4_step(unicycle_rhs, x, (u[0], u[1]), cfg.ts)
    assert math.hypot(x[0], x[1]) < 0.1


def test_rollout_problem_derivatives_match_finite_differences():
    cfg = MpcConfig(horizon=4)
    obstacles = [Obstacle(1.5, -1.0, 0.5), Obstacle(2.5, -2.5, 0.4)]
    prob = _RolloutProblem(np.array([3.0, -2.0, 0.5]), cfg,
                           np.array([0.0, 0.0, 0.0]), obstacles, gamma=0.3)
    rng = np.random.default_rng(25)
    u = rng.uniform(-1.0, 1.0, size=8)
    _, g, aux = prob.evaluate(u)
    hess, grad, jac = prob.linearize(u, aux)
    assert g.shape == (2 * 2 * 4 + 2 * 4,)
    assert jac.shape == (g.size, 8)
    step = 1e-6
    fd_cost = np.empty(8)
    fd_rows = np.empty((g.size, 8))
    for i in range(8):
        e = np.zeros(8)
        e[i] = step
        up, down = prob.evaluate(u + e), prob.evaluate(u - e)
        fd_cost[i] = (up[0] - down[0]) / (2.0 * step)
        fd_rows[:, i] = (up[1] - down[1]) / (2.0 * step)
    # The Gauss-Newton model has the true cost gradient at u.
    np.testing.assert_allclose(hess @ u + grad, fd_cost, rtol=0.0,
                               atol=1e-6 * (1.0 + np.max(np.abs(fd_cost))))
    np.testing.assert_allclose(jac, fd_rows, rtol=0.0,
                               atol=1e-6 * (1.0 + np.max(np.abs(fd_rows))))
    np.testing.assert_allclose(hess, hess.T, atol=0.0)
    assert np.min(np.linalg.eigvalsh(hess)) > 0.0


def test_nmpc_single_solve_interface():
    cfg = MpcConfig()
    res = NonlinearMpc(cfg, obstacles=[Obstacle(1.5, -1.0, 0.5)]).solve(
        np.array([3.0, -2.0, 0.5]))
    assert res.status in ("optimal", "max_iter")
    assert res.v_sequence.shape == (cfg.horizon, 2)
    assert res.z_prediction.shape == (cfg.horizon + 1, 3)
    assert np.all(res.v_sequence <= cfg.u_max + 1e-8)
    assert np.all(res.v_sequence >= cfg.u_min - 1e-8)


def test_nmpc_slower_than_linear_scheme_per_step():
    cfg = MpcConfig(horizon=8, Q=np.diag([1, 0.08, 1, 0.08]),
                    R=np.diag([0.05, 0.05]), v_min=[-50, -50], v_max=[50, 50])
    model, td = _setup(cfg)
    obs = [Obstacle(3.5, 3.5, 1.5)]
    lin = LinearMpc(cfg, obstacles=obs)
    nl = NonlinearMpc(cfg, obstacles=obs)
    z0 = np.array([7.0, -0.5, 7.0, 0.0])
    x0 = np.array([7.0, 7.0, math.pi])
    lin_times, nl_times = [], []
    for _ in range(30):
        lin_times.append(lin.solve(z0).solve_time)
        nl_times.append(nl.solve(x0).solve_time)
    assert np.median(nl_times) > np.median(lin_times)
