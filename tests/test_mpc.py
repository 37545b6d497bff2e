import importlib.util
import math
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import scmpc.mpc
from conftest import nominal_scenario, tuned_mpc_config
from scmpc import (ConfigError, MpcConfig, Obstacle, build_qcqp,
                   discretize_double_integrator, run_closed_loop, solve_sqp,
                   terminal_data)
from scmpc.cli import _build_scenario, load_config
from scmpc.mpc import (FEAS_TOL, OPT_TOL, LinearMpc, NonlinearMpc,
                       _floor_eigenvalues, _merit_penalty, _RolloutProblem,
                       estimate_flops_ip, estimate_flops_sqp,
                       prediction_matrices)
from scmpc.sim import StepRecord

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "nominal.json"

LOOSE = dict(v_min=[-1e9, -1e9], v_max=[1e9, 1e9],
             pos_min=[-1e9, -1e9], pos_max=[1e9, 1e9])


def _setup(cfg):
    model = discretize_double_integrator(cfg.ts)
    return model, terminal_data(model, cfg.Q, cfg.R)


def _qcqp(z0, cfg, obstacles=(), mode="cbf"):
    """build_qcqp's problem at z0 on the workspace and gamma of a
    controller for cfg and the obstacles."""
    controller = LinearMpc(cfg, obstacles, mode=mode)
    return build_qcqp(z0, controller.workspace, 1.0 - controller.gamma)


def test_config_validation():
    # Horizons take only integral numbers: int() would truncate 8.7 to 8
    # and turn True into 1.
    for kwargs in ({"horizon": 0}, {"gamma": 0.0}, {"gamma": 1.0001},
                   {"ts": -0.1}, {"v_min": [1.0, 1.0], "v_max": [1.0, 1.0]},
                   {"pos_min": [5.0, 0.0], "pos_max": [1.0, 1.0]},
                   {"R": np.zeros((2, 2))}, {"horizon": 8.7},
                   {"constraint_horizon": 2.9}, {"constraint_horizon": -1},
                   {"horizon": True}, {"horizon": "8"},
                   {"Q": np.diag([np.nan, 1.0, 1.0, 1.0])},
                   {"Q": np.diag([np.inf, 1.0, 1.0, 1.0])},
                   {"nmpc_P": np.diag([np.inf, 1.0, 0.0])},
                   {"v_max": [np.inf, 10.0]}, {"pos_min": [-np.inf, -10.0]},
                   {"Q": np.eye(3)}, {"v_min": [-1.0, -1.0, -1.0]},
                   {"u_min": [2.0, -3.0]}, {"Q": np.diag([1.0, -1.0, 1.0, 1.0])},
                   # Reals take only finite numbers, not bools or strings.
                   {"ts": math.inf}, {"gamma": True}, {"ts": True},
                   {"gamma": "0.5"},
                   # So does every entry of an array field.
                   {"v_min": ["-10", "-10"]}, {"v_max": [True, True]},
                   {"R": [True, True]}, {"Q": np.eye(4) > 0},
                   {"pos_min": np.array(["-10", "-10"], dtype=object)},
                   {"nmpc_Q": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 0.0]]}):
        with pytest.raises(ConfigError):
            MpcConfig(**kwargs)
    with pytest.raises(ConfigError, match="nmpc"):
        LinearMpc(MpcConfig(), mode="nmpc")
    cfg = MpcConfig(horizon=6.0, constraint_horizon=np.int64(3))
    assert (cfg.horizon, cfg.constraint_horizon) == (6, 3)
    assert type(cfg.horizon) is type(cfg.constraint_horizon) is int


def test_constraint_row_counts():
    cfg = MpcConfig(horizon=8, constraint_horizon=10)
    obstacles = [Obstacle(3.5, 3.5, 1.5)]
    prob = _qcqp(np.array([7.0, -0.5, 7.0, 0.0]), cfg, obstacles)
    n, nc = 8, 10
    # Input box rows for v_0, ..., v_{N-1}, position box rows for p_1, ...,
    # p_{N-1}, and 8 rows per tail step j = 0, ..., nc, whose j = 0 rows
    # bound p_N.
    assert (prob.lin_rows.shape[0] == len(prob.lin_rhs) == 148
            == 2 * 2 * n + 2 * 2 * (n - 1) + (nc + 1) * 8)
    # No affine row is stated twice: no two agree in V, z0 map and constant.
    for horizon in (8, 14):
        ws = LinearMpc(replace(cfg, horizon=horizon), obstacles).workspace
        full = np.hstack([ws.lin_rows, ws.h_lin, ws.h_const[:, None]])
        assert len(np.unique(full, axis=0)) == len(full)
    assert len(prob.quad_rows) == n * len(obstacles)
    # One position map per predicted position p_0, ..., p_N and one row
    # Hessian per step, stacked, all shared by all obstacles.
    assert prob.quad_rows.maps.shape == (n + 1, 2, 2 * n)
    assert prob.quad_rows.offsets.shape == (n + 1, 2)
    assert prob.quad_rows.hessians.shape == (n * 2 * n, 2 * n)
    # positive-definite cost in the condensed form
    np.testing.assert_allclose(prob.hessian, prob.hessian.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(prob.hessian)) > 0.0
    # two obstacles double the quadratic rows
    prob = _qcqp(np.array([7.0, -0.5, 7.0, 0.0]), cfg,
                 obstacles + [Obstacle(-2.0, 0.0, 0.5)])
    assert len(prob.quad_rows) == 2 * n
    assert prob.quad_rows.maps.shape == (n + 1, 2, 2 * n)
    assert prob.quad_rows.center.shape == (2, 2)
    assert prob.quad_rows.radius_sq.shape == (2,)
    assert np.ndim(prob.quad_rows.decay) == 0


def _reference_rows(cfg, model, z0, obstacles, mode):
    """Per-row barrier data straight from the prediction maps, in
    obstacle-major order: (map_next, off_next, map_prev, off_prev, center,
    radius_sq, decay) for each row, with radius_sq backed off by twice the
    SQP feasibility tolerance."""
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
                         np.array([obs.x, obs.y]),
                         obs.radius**2 + 2.0 * FEAS_TOL, prev[2]))
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
            model = discretize_double_integrator(cfg.ts)
            z0 = rng.uniform(-4.0, 4.0, size=4)
            # The euclid rows are the barrier rows at gamma = 1.
            block = _qcqp(z0, cfg, obstacles, mode).quad_rows
            ref = _reference_rows(cfg, model, z0, obstacles, mode)
            assert len(block) == len(ref) == 2 * cfg.horizon
            # p_0 is the measured position; only the cbf rows read it.
            assert not np.any(block.maps[0])
            np.testing.assert_array_equal(block.offsets[0], z0[[0, 2]])
            if mode == "cbf":
                assert block.decay == 1.0 - cfg.gamma
            else:
                assert block.decay == 0.0
            for _ in range(5):
                v = rng.uniform(-3.0, 3.0, size=2 * cfg.horizon)
                want = np.array([_reference_value(r, v) for r in ref])
                got = block.value(v)
                assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
                want = np.array([_reference_gradient(r, v) for r in ref])
                got = block.gradient(v)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_quadratic_form_rows_match_the_offsets_form():
    # value and gradient evaluate each row as one quadratic form in v. On
    # the offsets d = p_k(v) - c_o they are _barrier_rows and
    # _barrier_jacobian. The forms cancel terms of the size of |d|^2 in
    # their own order, also where the robot and obstacles lie 1e3 m from
    # the goal, so they agree to 1e-12 of 1 + max |d|^2 (value) and of
    # (1 + max |d|) max |maps| (gradient); measured 4e-14 at 1e3 m.
    rtol = 1e-12
    rng = np.random.default_rng(25)
    for shift in (0.0, 1e3):
        obstacles = [Obstacle(3.5 + shift, 3.5 + shift, 1.5),
                     Obstacle(-2.0 + shift, 0.5 + shift, 0.5)]
        for mode in ("cbf", "euclid"):
            for _ in range(10):
                cfg = MpcConfig(horizon=int(rng.integers(1, 15)),
                                gamma=float(rng.uniform(0.05, 1.0)), **LOOSE)
                z0 = rng.uniform(-4.0, 4.0, size=4) + shift * np.array(
                    [1.0, 0.0, 1.0, 0.0])
                rows = _qcqp(z0, cfg, obstacles, mode).quad_rows
                for _ in range(5):
                    v = rng.uniform(-3.0, 3.0, size=2 * cfg.horizon)
                    d = (rows.offsets + rows.maps @ v)[None] - rows.center[:, None]
                    size = float(np.max(np.sum(d * d, axis=2)))
                    got = rows.value(v)
                    want = scmpc.mpc._barrier_rows(d, rows.radius_sq, rows.decay)
                    assert np.max(np.abs(got - want)) <= rtol * (1.0 + size)
                    q = rows.hessians @ v
                    np.testing.assert_array_equal(rows.value(v, q), got)
                    got = rows.gradient(v)
                    want = scmpc.mpc._barrier_jacobian(d, rows.maps, rows.decay)
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= rtol * (
                        1.0 + math.sqrt(size)) * np.max(np.abs(rows.maps))
                    np.testing.assert_array_equal(rows.gradient(v, q), got)


def test_row_hessians_are_built_once_per_decay(monkeypatch):
    # The workspace stacks 2 (gram_{k+1} - decay gram_k) on first use of a
    # decay and every build_qcqp at that decay shares the stack: the
    # nominal run's 18 QCQPs share one, and the relaxed decay has its own.
    built = []
    hessians = scmpc.mpc._CondensedWorkspace.row_hessians
    build = scmpc.mpc.build_qcqp

    def recording(z0, workspace, decay):
        problem = build(z0, workspace, decay)
        built.append((workspace, decay, problem.quad_rows.hessians))
        return problem

    monkeypatch.setattr(scmpc.mpc, "build_qcqp", recording)
    run_closed_loop(nominal_scenario(duration=50.0))
    assert len(built) == 18
    ws, decay, stack = built[0]
    assert all(b[0] is ws and b[1] == decay and b[2] is stack for b in built)
    assert list(ws._row_hessians) == [decay]
    gram = np.einsum("kin,kim->knm", ws.pos_maps, ws.pos_maps)
    n, nv = ws.n_steps, 2 * ws.n_steps
    np.testing.assert_allclose(stack.reshape(n, nv, nv),
                               2.0 * (gram[1:] - decay * gram[:-1]),
                               rtol=0.0, atol=1e-12 * np.max(np.abs(gram)))
    relaxed = hessians(ws, 0.8)
    assert relaxed is not stack and hessians(ws, 0.8) is relaxed
    assert hessians(ws, decay) is stack
    assert sorted(ws._row_hessians) == [0.8, decay]


# Eigenvalues relative to the largest |eig|, which is 1: near the floor of
# 1e-3 and near the Cholesky pre-test's shift of 2e-3 |w|_F.
_NEAR_FLOOR = st.sampled_from([1e-3, math.nextafter(1e-3, 0.0), 0.999e-3,
                               1.001e-3, 2e-3, 1.9e-3, 2.1e-3, 5e-3, 0.0,
                               -1e-3])


@settings(max_examples=300, deadline=None)
@given(rest=st.lists(st.one_of(_NEAR_FLOOR, st.floats(1e-3, 1.0)),
                    max_size=12),
       low=st.one_of(st.just([]), st.lists(st.floats(-1.0, 1e-3), min_size=1,
                                           max_size=3)),
       scale=st.floats(1e-4, 1e4),
       seed=st.integers(0, 2**32 - 1))
def test_floor_eigenvalues_matches_the_eigh_reference(rest, low, scale, seed):
    # The pre-test only skips the eigendecomposition: the result is the
    # reference's, and w itself whenever nothing is floored.
    from oracles import floor_eigenvalues_eigh
    vals = scale * np.array([1.0] + rest + low)
    if vals.min() > 2e-3 * np.linalg.norm(vals):
        event("above the pre-test shift")
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(
        size=(len(vals), len(vals))))
    w = (q * vals) @ q.T
    w = 0.5 * (w + w.T)
    ref = floor_eigenvalues_eigh(w)
    out = _floor_eigenvalues(w)
    event("nothing floored" if ref is w else "floored")
    assert (out is w) == (ref is w)
    np.testing.assert_array_equal(out, ref)


def test_floor_eigenvalues_skips_eigh_on_a_well_conditioned_matrix(
        monkeypatch):
    def no_eigh(w):
        raise AssertionError("eigh called")

    w = np.diag([4.0, 1.0, 0.5]) + 0.1
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert _floor_eigenvalues(w) is w
    # NaN passes through numpy's Cholesky silently, so it is left to eigh.
    with pytest.raises(AssertionError, match="eigh called"):
        _floor_eigenvalues(np.full((2, 2), np.nan))


def test_row_curvature_matches_finite_differences_of_gradient():
    # Each row gradient is affine in v, so central differences of it are
    # exact up to roundoff and give the row's constant Hessian.
    rng = np.random.default_rng(26)
    obstacles = [Obstacle(3.5, 3.5, 1.5), Obstacle(-2.0, 0.5, 0.5)]
    step = 1e-3
    for mode in ("cbf", "euclid"):
        cfg = MpcConfig(horizon=5, gamma=0.3, **LOOSE)
        rows = _qcqp(rng.uniform(-4.0, 4.0, size=4), cfg, obstacles,
                     mode).quad_rows
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
    z0 = np.array([7.0, -0.5, 7.0, 0.0])
    # An obstacle far off the path: its rows never bind, so the QP gets the
    # cost Hessian and linear term themselves, and its full step already
    # solves the problem.
    far = _qcqp(z0, cfg, [Obstacle(-8.0, 8.0, 0.5)])
    res, calls = _recorded_qp_inputs(monkeypatch, far)
    assert res.status == "optimal" and len(calls) == 1
    for hessian, gradient, _ in calls:
        assert np.array_equal(hessian, far.hessian)
        assert np.array_equal(gradient, far.gradient)
    v = np.linspace(-1.0, 1.0, 2 * cfg.horizon)
    aux = far.evaluate(v)[2]
    for lam in (None, np.zeros(len(far.quad_rows))):
        hessian, gradient, _ = far.linearize(v, aux, lam)
        assert hessian is far.hessian and gradient is far.gradient
    # The obstacle on the path binds: after the first QP the model has the
    # Lagrangian Hessian and still the cost gradient at the iterate.
    near = _qcqp(z0, cfg, [Obstacle(3.5, 3.5, 1.5)])
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


def test_startup_transient_converges_in_few_iterations():
    log = run_closed_loop(nominal_scenario(duration=1.0))
    assert len(log.records) == 20
    assert [c[0] for c in log.calls] == ["optimal"] * 20
    assert max(r.sqp_iterations for r in log.records) <= 8
    cfg = load_config(CONFIG)
    for gamma in (0.3, 0.5, 0.7, 0.9, 1.0):
        scenario = _build_scenario(cfg, gamma, None, None, cfg["seed"])
        log = run_closed_loop(replace(scenario, duration=10.0))
        statuses = [c[0] for c in log.calls]
        assert len(statuses) == len(log.records) == 200
        assert "max_iter" not in statuses


def _recorded_attempts(monkeypatch, scenario):
    """(controller, z0, gamma, start, result) of each solve at one gamma
    (LinearMpc._solve_once) of a run, z0 goal-centered. start holds the
    warm_start, working_set and multipliers keywords that solve_sqp
    received, or for a certified solve those it would have received."""
    attempts = []
    received = []
    solve_once = LinearMpc._solve_once
    sqp = scmpc.mpc.solve_sqp

    def recording_sqp(problem, **start):
        received.append(start)
        return sqp(problem, **start)

    def recording(controller, z0, gamma):
        received.clear()
        res = solve_once(controller, z0, gamma)
        work, lam = controller._last[2:] if controller._last else (None, None)
        start = received[0] if received else {
            "warm_start": controller._warm_start(), "working_set": work,
            "multipliers": lam}
        attempts.append((controller, z0, gamma, start, res))
        return res

    monkeypatch.setattr(scmpc.mpc, "solve_sqp", recording_sqp)
    monkeypatch.setattr(LinearMpc, "_solve_once", recording)
    run_closed_loop(scenario)
    monkeypatch.undo()
    return attempts


def _attempt_problem(controller, z0, gamma):
    """The QCQP that a recorded attempt builds when it is not certified."""
    return build_qcqp(z0, controller.workspace, 1.0 - gamma)


def test_euclid_mode_is_the_cbf_rows_at_gamma_one():
    # The Euclidean rows h(p_{k+1}) >= 0 are the barrier rows at gamma = 1,
    # whatever gamma the euclid config carries: the two runs agree in every
    # step field but the solve time, in the final state, and in each
    # controller call's status and SQP and QP counts.
    a, b = (run_closed_loop(nominal_scenario(gamma=gamma, mode=mode,
                                             duration=2.0))
            for gamma, mode in ((0.1, "euclid"), (1.0, "cbf")))
    assert len(a.records) == len(b.records) == len(a.calls) == 40
    assert a.calls == b.calls
    assert any(c[2] > 0 for c in a.calls)  # some steps build and solve a QCQP
    names = [f.name for f in fields(StepRecord) if f.name != "solve_time"]
    for ra, rb in zip(a.records, b.records):
        for name in names:
            assert getattr(ra, name) == getattr(rb, name)
    assert np.array_equal(a.final_state, b.final_state)


def test_sqp_exit_stops_only_where_a_resolve_confirms(monkeypatch):
    # A solve at one gamma stops on a certified free minimizer, or after a
    # full step to the exact cost's QP minimizer with no barrier row active.
    # Re-solving its QCQP by SQP from each returned plan must then confirm
    # the plan in one iteration without moving it.
    attempts = _recorded_attempts(monkeypatch, nominal_scenario(duration=2.05))
    assert len(attempts) == 41
    # Without the exit every warm-started step takes at least two.
    assert sum(a[4].sqp_iterations == 1 for a in attempts) >= 20
    for controller, z0, gamma, start, res in attempts:
        again = solve_sqp(_attempt_problem(controller, z0, gamma),
                          **{**start, "warm_start": res.v_sequence.ravel()})
        assert res.status == again.status == "optimal"
        assert again.sqp_iterations == 1
        np.testing.assert_array_equal(again.v_sequence, res.v_sequence)


def test_sqp_exit_leaves_the_gauss_newton_baseline_alone():
    # The rollout's model is never the exact cost, so the baseline keeps
    # the counts it had before the exit existed.
    log = run_closed_loop(nominal_scenario(mode="nmpc", duration=8.0))
    statuses = [c[0] for c in log.calls]
    assert len(statuses) == len(log.records) == 160
    assert sum(r.sqp_iterations for r in log.records) == 3049
    assert statuses.count("max_iter") == 54
    assert statuses.count("optimal") == 106


def test_relaxed_step_reports_both_solves(monkeypatch):
    # On the obstacle course (N = 14, noise seed 0) the first SQP of step 20
    # meets an infeasible QP and the retry at 2 gamma certifies its free
    # minimizer before building a QCQP. The step must report the SQP
    # iterations and QP KKT solves of both solves, not only the retry's 1
    # and 0.
    tool = Path(__file__).resolve().parents[1] / "tools" / "trajdiff.py"
    spec = importlib.util.spec_from_file_location("trajdiff", tool)
    trajdiff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trajdiff)
    course = trajdiff.run_set(CONFIG)["course-seed0-30s"]
    solved = []
    steps = []
    solve_once = LinearMpc._solve_once
    solve = LinearMpc.solve

    def recording_once(controller, z0, gamma):
        res = solve_once(controller, z0, gamma)
        solved.append((res.status, res.sqp_iterations, res.qp_iterations_total,
                       gamma))
        return res

    def recording(controller, z0):
        first = len(solved)
        res = solve(controller, z0)
        steps.append((res, solved[first:]))
        return res

    monkeypatch.setattr(LinearMpc, "_solve_once", recording_once)
    monkeypatch.setattr(LinearMpc, "solve", recording)
    log = run_closed_loop(replace(course, duration=21 * course.mpc.ts))
    assert len(log.records) == len(steps) == 21
    for res, calls in steps:
        assert res.sqp_iterations == sum(c[1] for c in calls)
        assert res.qp_iterations_total == sum(c[2] for c in calls)
    res, calls = steps[20]
    assert [c[0] for c in calls] == ["infeasible", "optimal"]
    # The retry gets a plain gamma, doubled.
    assert [c[3] for c in calls] == [0.1, 0.2]
    assert res.status == "optimal"
    assert (res.sqp_iterations, res.qp_iterations_total) == (2, 7)
    assert log.records[20].sqp_iterations == 2
    assert all(len(c) == 1 for _, c in steps[:20])


def test_certified_plans_match_the_solve_without_certificate(monkeypatch):
    # A typical nominal step returns the cost's unconstrained minimizer
    # before any QCQP is built. Solving that step's QCQP by SQP from the
    # same start must give the same status, and the first QP of the cost's
    # own model (no start multipliers) must find the same plan. The SQP may
    # then stop on its warm start, which its exit test allows to lie within
    # OPT_TOL of that plan.
    attempts = _recorded_attempts(monkeypatch,
                                  nominal_scenario(duration=50.0))
    assert len(attempts) == 1000
    certified = [a for a in attempts if a[4].qp_iterations_total == 0]
    assert len(certified) >= 900
    minimizers = []
    solve_qp = scmpc.mpc.solve_qp

    def recording(*args, **kwargs):
        qp = solve_qp(*args, **kwargs)
        minimizers.append(qp.x)
        return qp

    monkeypatch.setattr(scmpc.mpc, "solve_qp", recording)
    for controller, z0, gamma, start, res in certified:
        assert res.status == "optimal" and res.sqp_iterations == 1
        problem = _attempt_problem(controller, z0, gamma)
        minimizers.clear()
        solve_sqp(problem, **{**start, "multipliers": None})
        plan = res.v_sequence.ravel()
        np.testing.assert_allclose(minimizers[0], plan, rtol=0.0, atol=1e-9)
        again = solve_sqp(problem, **start)
        assert again.status == res.status
        assert np.max(np.abs(again.v_sequence.ravel() - plan)) <= OPT_TOL


def test_certified_steps_build_no_qcqp(monkeypatch):
    # build_qcqp and solve_sqp run once per solve that the certificate
    # leaves open, and never for a certified one.
    calls = Counter()
    for name in ("build_qcqp", "solve_sqp"):
        def counted(*args, _name=name, _fn=getattr(scmpc.mpc, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scmpc.mpc, name, counted)
    attempts = _recorded_attempts(monkeypatch,
                                  nominal_scenario(duration=50.0))
    open_ = sum(a[4].qp_iterations_total > 0 for a in attempts)
    assert len(attempts) == 1000
    assert calls["build_qcqp"] == calls["solve_sqp"] == open_ == 18


def test_free_minimizer_through_the_barrier_is_not_certified(monkeypatch):
    # At the nominal start the cost's unconstrained minimizer violates the
    # barrier rows, so the step builds the QCQP and runs the SQP on it.
    controller, z0, gamma, start, res = _recorded_attempts(
        monkeypatch, nominal_scenario(duration=0.05))[0]
    problem = _attempt_problem(controller, z0, gamma)
    free = controller.workspace.free_map @ z0
    assert np.min(problem.quad_rows.value(free)) < -FEAS_TOL
    assert np.max(problem.lin_rows @ free - problem.lin_rhs) <= 0.0
    assert controller.workspace.certify(z0, 1.0 - gamma) is None
    again = solve_sqp(problem, **start)
    assert res.status == again.status == "optimal"
    assert res.qp_iterations_total == again.qp_iterations_total > 0
    assert res.sqp_iterations == again.sqp_iterations
    np.testing.assert_array_equal(res.v_sequence, again.v_sequence)
    assert res.cost == again.cost


def test_sqp_exit_needs_an_optimal_qp(monkeypatch):
    # The far obstacle's problem ends after one full step to an optimal QP
    # with no barrier row active. The same minimizer from a QP labelled
    # max_iter proves nothing, so the SQP must solve a second QP.
    cfg = MpcConfig(horizon=8)
    far = _qcqp(np.array([7.0, -0.5, 7.0, 0.0]), cfg,
                [Obstacle(-8.0, 8.0, 0.5)])
    assert solve_sqp(far).sqp_iterations == 1
    solve_qp = scmpc.mpc.solve_qp
    n_barrier = len(far.quad_rows)

    def capped(*args, **kwargs):
        qp = solve_qp(*args, **kwargs)
        assert qp.status == "optimal"
        assert not np.any(qp.multipliers[-n_barrier:])
        return replace(qp, status="max_iter")

    monkeypatch.setattr(scmpc.mpc, "solve_qp", capped)
    res = solve_sqp(far)
    assert res.status == "optimal" and res.sqp_iterations == 2


class _DiskProblem:
    """min 0.5 |v - (2, 0)|^2 subject to v_1^2 <= 2.25, solution (1.5, 0).

    The QP model is the exact cost. The row linearized at 0 is slack
    everywhere, so the first QP's minimizer (2, 0) has no row multiplier,
    but the row is violated there: the merit function rejects the full
    step and accepts half of it, a feasible point that is not optimal.
    """

    v_lo = np.full(2, -10.0)
    v_hi = np.full(2, 10.0)
    lin_rows = np.vstack([np.eye(2), -np.eye(2)])
    lin_rhs = np.full(4, 10.0)
    hessian = np.eye(2)
    gradient = np.array([-2.0, 0.0])

    def evaluate(self, v):
        g = np.array([v[0] ** 2 - 2.25])
        return float(0.5 * v @ v + self.gradient @ v), g, None

    def linearize(self, v, aux, multipliers=None):
        return self.hessian, self.gradient, np.array([[2.0 * v[0], 0.0]])


class _Reads:
    """A problem's attributes, recording each name solve_sqp reads."""

    def __init__(self, problem):
        self.problem, self.names = problem, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.problem, name)


def test_sqp_exit_needs_the_full_step():
    problem = _Reads(_DiskProblem())
    res = solve_sqp(problem)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.v_sequence.ravel(), [1.5, 0.0], atol=1e-6)
    # solve_sqp reads the seven names of its docstring and no other.
    assert problem.names == {"lin_rows", "lin_rhs", "v_lo", "v_hi", "hessian",
                             "evaluate", "linearize"}


def _line_search_trace(monkeypatch, problem, start):
    """solve_sqp(problem, **start)'s result, its evaluate calls, and per QP
    the merit penalty at the QP's start v, the cost's slope along its step
    and the number of trial points evaluated after it."""
    trace, evals = [], [0]
    solve_qp, evaluate = scmpc.mpc.solve_qp, type(problem).evaluate

    def recording(hessian, gradient, rows, rhs, x0=None, **kwargs):
        qp = solve_qp(hessian, gradient, rows, rhs, x0=x0, **kwargs)
        _, g, _ = evaluate(problem, x0)
        viol = np.concatenate([problem.lin_rows @ x0 - problem.lin_rhs, g])
        trace.append([_merit_penalty(viol),
                      float((hessian @ x0 + gradient) @ (qp.x - x0)), 0])
        return qp

    def counting(self, v):
        evals[0] += 1
        if trace:
            trace[-1][2] += 1
        return evaluate(self, v)

    monkeypatch.setattr(scmpc.mpc, "solve_qp", recording)
    monkeypatch.setattr(type(problem), "evaluate", counting)
    res = solve_sqp(problem, **start)
    monkeypatch.undo()
    return res, evals[0], trace


def _gamma_half_step_10(monkeypatch):
    """The QCQP and solve_sqp's start keywords of step 10 of the
    gamma = 0.5 sweep point."""
    cfg = load_config(CONFIG)
    scenario = _build_scenario(cfg, 0.5, None, None, cfg["seed"])
    attempts = _recorded_attempts(
        monkeypatch, replace(scenario, duration=11 * scenario.mpc.ts))
    controller, z0, gamma, start, _ = attempts[10]
    return _attempt_problem(controller, z0, gamma), start


def test_sqp_stops_where_no_trial_can_lower_the_merit(monkeypatch):
    # The warm start meets every row within FEAS_TOL / 2, so its merit
    # penalty is zero, and the QP step raises the convex cost: no trial
    # point has a lower merit. Without the stop the line search evaluates
    # 17 trial points and ends 7e-11 from the start.
    problem, start = _gamma_half_step_10(monkeypatch)
    v = np.clip(start["warm_start"], problem.v_lo, problem.v_hi)
    assert np.min(problem.quad_rows.value(v)) >= -0.5 * FEAS_TOL
    res, evals, trace = _line_search_trace(monkeypatch, problem, start)
    assert res.status == "optimal"
    np.testing.assert_array_equal(res.v_sequence.ravel(), v)
    assert evals == len(trace) == 1
    penalty, slope, trials = trace[0]
    assert penalty == 0.0 and slope > 0.0 and trials == 0


def _penalized_start(monkeypatch):
    # Step 10's barrier rows lowered so that the start violates the worst
    # of them by 0.75 FEAS_TOL: a positive penalty that a trial may lower.
    problem, start = _gamma_half_step_10(monkeypatch)
    rows = problem.quad_rows
    lowest = np.min(rows.value(np.clip(start["warm_start"], problem.v_lo,
                                       problem.v_hi)))
    shift = (0.75 * FEAS_TOL + lowest) / (1.0 - rows.decay)
    return replace(problem, quad_rows=replace(
        rows, radius_sq=rows.radius_sq + shift)), start


def _gauss_newton_rollout(monkeypatch):
    # Step 35 of the nmpc baseline under noise seed 1 reaches iterates of
    # zero penalty whose QP step raises the cost; its cost is not quadratic.
    attempts = []
    solve = NonlinearMpc.solve

    def recording(controller, x0):
        attempts.append((controller, x0, controller._warm))
        return solve(controller, x0)

    monkeypatch.setattr(NonlinearMpc, "solve", recording)
    run_closed_loop(nominal_scenario(mode="nmpc", noise_seed=1,
                                     duration=36 * 0.05))
    monkeypatch.undo()
    controller, x0, warm_start = attempts[35]
    problem = _RolloutProblem(np.asarray(x0, dtype=float)[:3], controller.cfg,
                              controller.cfg.gamma, controller.goal,
                              controller.obstacles)
    assert problem.hessian is None
    return problem, {"warm_start": warm_start}


@pytest.mark.parametrize("case, make", [
    ("penalty", _penalized_start),
    ("rollout", _gauss_newton_rollout),
    ("disk", lambda monkeypatch: (_DiskProblem(), {})),
])
def test_line_search_runs_where_a_trial_may_lower_the_merit(monkeypatch, case,
                                                           make):
    problem, start = make(monkeypatch)
    res, _, trace = _line_search_trace(monkeypatch, problem, start)
    assert res.status == "optimal"
    if case == "penalty":
        assert 0.0 < trace[0][0] <= FEAS_TOL and trace[0][2] >= 1
    elif case == "rollout":
        stalled = [t for t in trace if t[0] == 0.0 and t[1] >= 0.0]
        assert stalled and all(t[2] >= 1 for t in stalled)
    else:
        # The full step is rejected and its half accepted.
        assert trace[0][:2] == [0.0, -4.0] and trace[0][2] == 2


def test_sampled_plant_stays_outside_at_the_tolerance():
    # gamma = 1.0 and the euclid rows let the plan graze the obstacle, and
    # solve_sqp accepts violations up to FEAS_TOL. The rows' back-off must
    # keep every sampled position outside the true disk.
    cfg = load_config(CONFIG)
    for gamma, mode in ((1.0, None), (None, "euclid")):
        scenario = _build_scenario(cfg, gamma, None, mode, cfg["seed"])
        log = run_closed_loop(replace(scenario, duration=10.0))
        assert len(log.records) == 200
        assert min(min(r.distances) for r in log.records) >= 0.0
        assert min(min(r.barriers) for r in log.records) >= 0.0


def test_iterate_at_obstacle_center_uses_fallback_direction():
    # The zero warm start predicts the first position exactly on the
    # center of the second obstacle, where its k = 0 barrier row (row N)
    # has a zero gradient.
    cfg = MpcConfig(horizon=8, **LOOSE)
    n = cfg.horizon
    z0 = np.array([1.0, -4.0, 0.0, 0.0])
    probe = _qcqp(z0, cfg, [Obstacle(5.0, 5.0, 0.1)])
    center = probe.quad_rows.offsets[1]
    prob = _qcqp(z0, cfg, [Obstacle(-5.0, 5.0, 0.1),
                           Obstacle(center[0], center[1], 0.1)])
    v0 = np.zeros(2 * n)
    c = prob.quad_rows.value(v0)
    assert c[n] < 0.0
    assert not np.any(prob.quad_rows.gradient(v0)[n])
    # The stuck row pushes its step's position away from its own obstacle,
    # along the direction from that center toward the initial position.
    _, _, jac = prob.linearize(v0, prob.evaluate(v0)[2])
    away = z0[[0, 2]] - center
    np.testing.assert_allclose(jac[n], -2.0 * prob.quad_rows.maps[1].T @ away,
                               rtol=0.0, atol=1e-12)
    res = solve_sqp(prob, warm_start=v0)
    assert res.status != "infeasible"
    assert np.all(np.isfinite(res.v_sequence))


def test_single_step_closed_form():
    cfg = MpcConfig(horizon=1, constraint_horizon=0, **LOOSE)
    model, td = _setup(cfg)
    z0 = np.array([1.0, -0.3, 2.0, 0.4])
    res = solve_sqp(_qcqp(z0, cfg))
    assert res.status == "optimal"
    v_star = -np.linalg.solve(cfg.R + model.B.T @ td.Qbar @ model.B,
                              model.B.T @ td.Qbar @ model.A @ z0)
    np.testing.assert_allclose(res.v_sequence[0], v_star, atol=1e-9)
    # reported cost includes the current stage term
    z1 = model.A @ z0 + model.B @ v_star
    expect = float(z0 @ cfg.Q @ z0 + v_star @ cfg.R @ v_star + z1 @ td.Qbar @ z1)
    assert res.cost == pytest.approx(expect, rel=1e-12)


def test_out_of_box_state_flags_infeasible(monkeypatch):
    # The box does not depend on gamma, so the step is rejected before the
    # first solve, with no certificate, QCQP or SQP, and no gamma retry.
    calls = Counter()
    for owner, name in ((scmpc.mpc._CondensedWorkspace, "certify"),
                        (scmpc.mpc, "build_qcqp"), (scmpc.mpc, "solve_sqp")):
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    controller = LinearMpc(MpcConfig(), [Obstacle(3.5, 3.5, 1.5)])
    # A NaN position is not inside the box either.
    for z0 in ([20.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]):
        res = controller.solve(z0)
        assert res.status == "infeasible"
        assert (res.sqp_iterations, res.qp_iterations_total) == (0, 0)
    assert not calls
    assert controller.solve([7.0, 0.0, 7.0, 0.0]).status == "optimal"
    assert calls["certify"] == 1


def test_position_box_is_in_world_coordinates_for_both_controllers():
    # With the goal at (5, 5), (-6, 5) lies inside the box [-10, 10]^2 and
    # (12, 5) outside it, for the linear scheme as for the baseline.
    cfg = MpcConfig(v_min=[-50, -50], v_max=[50, 50])
    goal = (5.0, 5.0)
    for x, status in ((-6.0, "optimal"), (12.0, "infeasible")):
        for controller, state in ((LinearMpc(cfg, goal=goal), [x, 0.5, 5.0, 0.0]),
                                  (NonlinearMpc(cfg, goal=goal), [x, 5.0, 0.0])):
            res = controller.solve(state)
            assert res.status == status


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
        res = solve_sqp(_qcqp(z0, cfg))
        assert res.status == "optimal"
        oracle = _stacked_kkt_oracle(cfg, model, td, z0)
        np.testing.assert_allclose(res.v_sequence, oracle, atol=1e-6)


def test_distant_obstacle_leaves_solution_unchanged():
    cfg = MpcConfig(horizon=8, constraint_horizon=0, **LOOSE)
    z0 = np.array([2.0, -0.5, 1.0, 0.3])
    free = solve_sqp(_qcqp(z0, cfg))
    guarded = solve_sqp(_qcqp(z0, cfg, [Obstacle(500.0, 500.0, 1.5)]))
    assert guarded.status == "optimal"
    np.testing.assert_allclose(guarded.v_sequence, free.v_sequence, atol=1e-6)


def test_degenerate_bounds_with_blocked_path_infeasible():
    # Near-zero input authority while coasting into the obstacle.
    cfg = MpcConfig(horizon=8, constraint_horizon=0, gamma=0.1,
                    v_min=[-1e-9, -1e-9], v_max=[1e-9, 1e-9])
    z0 = np.array([5.2, -2.0, 3.5, 0.0])  # heading at the obstacle at 2 m/s
    prob = _qcqp(z0, cfg, [Obstacle(3.5, 3.5, 1.5)])
    res = solve_sqp(prob)
    assert res.status == "infeasible"


def test_decay_chain_on_predictions():
    cfg = MpcConfig(horizon=8, gamma=0.1, Q=np.diag([1, 0.08, 1, 0.08]),
                    R=np.diag([0.05, 0.05]), v_min=[-50, -50], v_max=[50, 50])
    obs = Obstacle(3.5, 3.5, 1.5)
    z0 = np.array([6.0, -1.5, 6.0, -1.5])
    res = solve_sqp(_qcqp(z0, cfg, [obs]))
    assert res.status == "optimal"
    model = _setup(cfg)[0]
    states = [z0]
    for v in res.v_sequence:
        states.append(model.A @ states[-1] + model.B @ v)
    h = [(z[0] - obs.x) ** 2 + (z[2] - obs.y) ** 2 - obs.radius**2
         for z in states]
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
    cfg = MpcConfig(horizon=4, gamma=0.3)
    obstacles = [Obstacle(1.5, -1.0, 0.5), Obstacle(2.5, -2.5, 0.4)]
    prob = _RolloutProblem(np.array([3.0, -2.0, 0.5]), cfg, cfg.gamma,
                           np.array([0.0, 0.0, 0.0]), obstacles)
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


@settings(max_examples=100, deadline=None)
@given(pose=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0),
                      st.floats(-10.0, 10.0)),
       horizon=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_rollout_states_are_the_nmpc_plant_steps(pose, horizon, seed):
    # The baseline plans on the plant it drives: each rolled-out state is
    # one rk4_step of unicycle_rhs from the one before, bit for bit.
    from scmpc.model import rk4_step, unicycle_rhs

    cfg = MpcConfig(horizon=horizon)
    prob = _RolloutProblem(np.array(pose), cfg, cfg.gamma,
                           np.zeros(3), [Obstacle(1.5, -1.0, 0.5)])
    u = np.random.default_rng(seed).uniform(-3.0, 3.0, size=2 * horizon)
    states, _ = prob.rollout(u)
    x = list(pose)
    assert states[0].tolist() == x
    for k in range(horizon):
        x = rk4_step(unicycle_rhs, x, (u[2 * k], u[2 * k + 1]), cfg.ts)
        assert states[k + 1].tolist() == x


def test_nmpc_single_solve_interface():
    cfg = MpcConfig()
    res = NonlinearMpc(cfg, obstacles=[Obstacle(1.5, -1.0, 0.5)]).solve(
        np.array([3.0, -2.0, 0.5]))
    assert res.status in ("optimal", "max_iter")
    assert res.v_sequence.shape == (cfg.horizon, 2)
    assert np.all(res.v_sequence <= cfg.u_max + 1e-8)
    assert np.all(res.v_sequence >= cfg.u_min - 1e-8)


def test_nmpc_slower_than_linear_scheme_per_step():
    cfg = MpcConfig(horizon=8, Q=np.diag([1, 0.08, 1, 0.08]),
                    R=np.diag([0.05, 0.05]), v_min=[-50, -50], v_max=[50, 50])
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


def _lifted_and_exact_barrier_rows(ws, z0, decay):
    """The barrier rows at the free plan from the certificate's product
    with lift(z0), and from _barrier_rows on the plan's positions."""
    _, _, i_h, i_m = ws.free_starts
    out = ws.free_stack @ np.concatenate([z0, np.outer(z0, z0).ravel(), [1.0]])
    pos = ws.pos_f @ z0 + ws.pos_maps @ (ws.free_map @ z0)
    exact = scmpc.mpc._barrier_rows(pos[None] - ws.center[:, None],
                                    ws.radius_sq, decay)
    return out[i_h:i_m] - decay * out[i_m:], exact


@settings(max_examples=300, deadline=None)
@given(horizon=st.integers(1, 10),
       gamma=st.floats(1e-3, 1.0),
       mode=st.sampled_from(["cbf", "euclid"]),
       z0=st.tuples(st.floats(-12.0, 12.0), st.floats(-3.0, 3.0),
                    st.floats(-12.0, 12.0), st.floats(-3.0, 3.0)),
       obstacles=st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0),
                                    st.floats(0.1, 2.0)), max_size=3),
       v_max=st.sampled_from([10.0, 50.0]))
# Just outside the position box, with the free plan back inside it and
# meeting every row: only LinearMpc.solve's box test rejects it.
@example(horizon=8, gamma=0.1, mode="cbf", z0=(10.02, -1.0, 0.0, 0.0),
         obstacles=[], v_max=50.0)
def test_workspace_certificate_matches_the_qcqp_rows(horizon, gamma, mode, z0,
                                                     obstacles, v_max):
    # The certificate decides from the workspace's stacked map what the rows
    # of build_qcqp's problem decide at the free minimizer, up to roundoff
    # at the tolerance, and a certified plan is that minimizer bit for bit.
    # Its lifted barrier values agree with _barrier_rows at the free plan.
    cfg = MpcConfig(horizon=horizon, gamma=gamma, v_min=[-v_max, -v_max],
                    v_max=[v_max, v_max])
    controller = LinearMpc(cfg, [Obstacle(*o) for o in obstacles], mode=mode)
    ws = controller.workspace
    z0 = np.array(z0)
    lifted, exact = _lifted_and_exact_barrier_rows(ws, z0, 1.0 - controller.gamma)
    np.testing.assert_allclose(lifted, exact, rtol=0.0, atol=1e-9)
    if not ws.inside(z0):
        event("outside the position box")
        assert controller.solve(z0).status == "infeasible"
        return
    problem = _attempt_problem(controller, z0, controller.gamma)
    res = ws.certify(z0, 1.0 - gamma if mode == "cbf" else 0.0)
    v = ws.free_map @ z0
    worst = max(np.max(problem.lin_rows @ v - problem.lin_rhs),
                np.max(-problem.quad_rows.value(v), initial=-np.inf))
    if abs(worst - FEAS_TOL) > 1e-9:
        assert (res is not None) == (worst <= FEAS_TOL)
    event("certified" if res is not None else "not certified")
    if res is not None:
        assert res.status == "optimal"
        assert (res.sqp_iterations, res.qp_iterations_total) == (1, 0)
        np.testing.assert_array_equal(res.v_sequence.ravel(), v)
        cost = problem.cost(v)
        assert abs(res.cost - cost) <= 1e-12 * (1.0 + abs(cost))


def test_certificate_takes_barrier_violations_up_to_feas_tol():
    # An obstacle sized so that the free plan's worst barrier row is
    # violated by 0.5 or 2 FEAS_TOL: only the first plan is certified.
    cfg = MpcConfig(horizon=8)
    z0 = np.array([2.0, -0.5, 1.0, 0.3])
    ws = LinearMpc(cfg).workspace
    pos = ws.pos_f @ z0 + ws.pos_maps @ (ws.free_map @ z0)
    center = pos[4] + np.array([0.0, -1.0])
    dist_sq = np.sum((pos - center) ** 2, axis=1)
    for mode, decay in (("euclid", 0.0), ("cbf", 1.0 - cfg.gamma)):
        # Row k is dist_sq[k + 1] - decay dist_sq[k] - (1 - decay) r^2 for
        # the backed-off squared radius r^2 = radius^2 + 2 FEAS_TOL.
        base = np.min(dist_sq[1:] - decay * dist_sq[:-1])
        for violation, certified in ((0.5 * FEAS_TOL, True),
                                     (2.0 * FEAS_TOL, False)):
            r_sq = (base + violation) / (1.0 - decay)
            obstacle = Obstacle(center[0], center[1],
                                math.sqrt(r_sq - 2.0 * FEAS_TOL))
            controller = LinearMpc(cfg, [obstacle], mode=mode)
            rows = _attempt_problem(controller, z0, controller.gamma).quad_rows
            worst = -np.min(rows.value(ws.free_map @ z0))
            assert abs(worst - violation) < 1e-3 * FEAS_TOL
            res = controller.workspace.certify(z0, decay)
            assert (res is not None) == certified


def test_certificate_leaves_far_rounding_to_the_sqp():
    # With the box at 1e5 m and an obstacle about 1e5 m from the goal, the
    # lifted barrier values lose more than FEAS_TOL to rounding. Obstacles
    # sized so that the free plan's worst barrier row is violated by
    # 2 or 0.5 FEAS_TOL: a certified plan must meet the rows within
    # FEAS_TOL, and each step still ends optimal through the SQP.
    big = 1e5
    cfg = MpcConfig(pos_min=[-big, -big], pos_max=[big, big],
                    v_min=[-1e7, -1e7], v_max=[1e7, 1e7])
    z0 = np.array([0.7 * big, -0.5, 0.7 * big, 0.3])
    ws = LinearMpc(cfg).workspace
    pos = ws.pos_f @ z0 + ws.pos_maps @ (ws.free_map @ z0)
    for mode, decay, offset in (("euclid", 0.0, (0.0, -1.0)),
                                ("cbf", 1.0 - cfg.gamma, (1e4, -1e4))):
        center = pos[4] + np.array(offset)
        dist_sq = np.sum((pos - center) ** 2, axis=1)
        base = np.min(dist_sq[1:] - decay * dist_sq[:-1])
        for violation in (2.0 * FEAS_TOL, 0.5 * FEAS_TOL):
            r_sq = (base + violation) / (1.0 - decay)
            obstacle = Obstacle(center[0], center[1],
                                math.sqrt(r_sq - 2.0 * FEAS_TOL))
            controller = LinearMpc(cfg, [obstacle], mode=mode)
            lifted, exact = _lifted_and_exact_barrier_rows(
                controller.workspace, z0, decay)
            assert np.max(np.abs(lifted - exact)) > FEAS_TOL
            assert abs(np.min(exact) + violation) < 0.1 * FEAS_TOL
            res = controller.workspace.certify(z0, decay)
            assert res is None or np.min(exact) >= -FEAS_TOL
            step = controller.solve(z0)
            assert step.status == "optimal" and step.qp_iterations_total > 0


def test_warm_start_is_built_only_for_an_sqp(monkeypatch):
    # Each SQP of the nominal run starts from the previous step's plan
    # shifted one stage, bit for bit, with K z_N appended, z_N the model's
    # rollout of that plan, and from that step's final working set and its
    # multipliers, or neither after a certified step; certified solves
    # build no warm start.
    received, steps, builds = [], [], []
    sqp, warm_start = scmpc.mpc.solve_sqp, LinearMpc._warm_start
    solve_once, solve = LinearMpc._solve_once, LinearMpc.solve

    def recording_sqp(problem, warm_start=None, working_set=None,
                      multipliers=None):
        received.append((len(steps), warm_start, working_set, multipliers))
        return sqp(problem, warm_start=warm_start, working_set=working_set,
                   multipliers=multipliers)

    def counted(controller):
        builds.append(controller)
        return warm_start(controller)

    def recording_once(controller, z0, gamma):
        res = solve_once(controller, z0, gamma)
        # The plan, the goal-centered state it was solved from, the final
        # working set and its multipliers.
        steps[-1] = (res.status, res.v_sequence.ravel().copy(), z0.copy(),
                     res.working_set, res.multipliers)
        return res

    def recording(controller, z0):
        steps.append(None)
        return solve(controller, z0)

    monkeypatch.setattr(scmpc.mpc, "solve_sqp", recording_sqp)
    monkeypatch.setattr(LinearMpc, "_warm_start", counted)
    monkeypatch.setattr(LinearMpc, "_solve_once", recording_once)
    monkeypatch.setattr(LinearMpc, "solve", recording)
    scenario = nominal_scenario(duration=50.0)
    run_closed_loop(scenario)
    assert len(steps) == 1000
    assert all(step[0] == "optimal" for step in steps)
    assert len(builds) == len(received) == 18
    assert sum(work is not None for _, _, work, _ in received) > 0
    assert sum(lam is not None and lam.any() for *_, lam in received) > 0
    model, td = _setup(scenario.mpc)
    for step, warm, work, lam in received:
        if step == 1:
            assert warm is None and work is None and lam is None
            continue
        _, plan, z, last_work, last_lam = steps[step - 2]
        assert work == last_work
        assert (lam is None) == (work is None) == (last_lam is None)
        if lam is not None:
            np.testing.assert_array_equal(lam, last_lam)
        for v in plan.reshape(-1, 2):
            z = model.A @ z + model.B @ v
        np.testing.assert_array_equal(warm[:-2], plan[2:])
        np.testing.assert_allclose(warm[-2:], td.K @ z, rtol=0.0, atol=1e-12)


def test_hot_start_changes_only_the_kkt_count(monkeypatch):
    # The QPs are strictly convex, so the start working set changes only
    # which KKT solves reach each QP's minimizer. Re-solving each
    # uncertified step of the nominal run from the same warm start, with the
    # kept set but without its multipliers and then cold, without either,
    # gives the same status, SQP count and plan, and the set spends fewer
    # KKT solves.
    attempts = _recorded_attempts(monkeypatch, nominal_scenario(duration=50.0))
    opened = [a for a in attempts if a[4].qp_iterations_total > 0]
    assert len(opened) == 18
    assert sum(a[3]["working_set"] is not None for a in opened) > 0
    hot_total = cold_total = 0
    for controller, z0, gamma, start, _ in opened:
        problem = _attempt_problem(controller, z0, gamma)
        hot = solve_sqp(problem, warm_start=start["warm_start"],
                        working_set=start["working_set"])
        cold = solve_sqp(problem, warm_start=start["warm_start"])
        assert cold.status == hot.status
        assert cold.sqp_iterations == hot.sqp_iterations
        np.testing.assert_allclose(cold.v_sequence, hot.v_sequence, rtol=0.0,
                                   atol=1e-9)
        hot_total += hot.qp_iterations_total
        cold_total += cold.qp_iterations_total
    assert hot_total < cold_total


def test_start_multipliers_shorten_the_sqp(monkeypatch):
    # The kept multipliers make the first QP's model the Lagrangian one, so
    # it no longer ignores the barrier rows' curvature. Re-solving each
    # uncertified step of the nominal run from the same warm start and set
    # without them gives the same status and a plan within the SQP's step
    # tolerance, in more SQP iterations in total.
    attempts = _recorded_attempts(monkeypatch, nominal_scenario(duration=50.0))
    opened = [a for a in attempts if a[4].qp_iterations_total > 0]
    assert len(opened) == 18
    assert sum(a[3]["multipliers"] is not None for a in opened) > 0
    without_total = 0
    for controller, z0, gamma, start, res in opened:
        without = solve_sqp(_attempt_problem(controller, z0, gamma),
                            **{**start, "multipliers": None})
        assert without.status == res.status
        np.testing.assert_allclose(without.v_sequence, res.v_sequence,
                                   rtol=0.0, atol=10 * OPT_TOL)
        without_total += without.sqp_iterations
    assert sum(a[4].sqp_iterations for a in opened) < without_total


def test_start_set_is_dropped_after_a_step_without_one(monkeypatch):
    # A certified step, an infeasible result and an out-of-box measurement
    # each drop the kept working set and its multipliers, so the next SQP's
    # first QP gets no guess and the SQP no multipliers; after an SQP step
    # they are that step's final working set and multipliers.
    firsts, guesses, lams = [], [], []
    sqp, qp = scmpc.mpc.solve_sqp, scmpc.mpc.solve_qp

    def recording_sqp(*args, **kwargs):
        firsts.append(len(guesses))
        lams.append(kwargs.get("multipliers"))
        return sqp(*args, **kwargs)

    def recording_qp(*args, **kwargs):
        guesses.append(kwargs.get("working_set"))
        return qp(*args, **kwargs)

    monkeypatch.setattr(scmpc.mpc, "solve_sqp", recording_sqp)
    monkeypatch.setattr(scmpc.mpc, "solve_qp", recording_qp)
    controller = LinearMpc(MpcConfig(), [Obstacle(3.5, 3.5, 1.5)])
    opened = np.array([7.0, -0.5, 7.0, 0.0])  # not certified
    res = controller.solve(opened)
    for z0, status, sqps in (([0.0, 0.0, 0.0, 0.0], "optimal", 0),
                             ([5.2, -2.0, 3.5, 0.0], "infeasible", 2),
                             ([20.0, 0.0, 0.0, 0.0], "infeasible", 0)):
        assert res.status == "optimal" and res.working_set
        assert res.multipliers.any()
        n_sqp = len(firsts)
        dropping = controller.solve(np.array(z0))
        assert dropping.status == status and len(firsts) == n_sqp + sqps
        if sqps:
            assert guesses[firsts[n_sqp]] == res.working_set
            np.testing.assert_array_equal(lams[n_sqp], res.multipliers)
        res = controller.solve(opened)
        assert guesses[firsts[-1]] is None and lams[-1] is None
    controller.solve(opened)
    assert guesses[firsts[-1]] == res.working_set
    np.testing.assert_array_equal(lams[-1], res.multipliers)


def test_certificate_decides_at_each_decay_as_the_exact_rows_do():
    # One controller certifies at its own decay and at the retry decay
    # min(2 gamma, 1), a euclid controller at decay 0. The free plan
    # approaches the obstacle ahead of it, and the radius lies between
    # what the decays 0.8 and 0.9 allow: the plan meets the rows at 0 and
    # 0.8 only. Each decision is the exact rows' at the free plan.
    cfg = MpcConfig(horizon=8, gamma=0.1)
    z0 = np.array([2.0, -0.5, 1.0, 0.3])
    obstacles = [Obstacle(0.0, 0.0, 1.3)]
    cbf = LinearMpc(cfg, obstacles)
    euclid = LinearMpc(cfg, obstacles, mode="euclid")
    for controller, decay, certified in ((cbf, 0.9, False), (cbf, 0.8, True),
                                         (cbf, 0.9, False), (euclid, 0.0, True)):
        ws = controller.workspace
        free = ws.free_map @ z0
        exact = build_qcqp(z0, ws, decay).quad_rows.value(free)
        assert abs(np.min(exact)) > 0.01
        assert (np.min(exact) >= -FEAS_TOL) == certified
        res = ws.certify(z0, decay)
        assert (res is not None) == certified
        if certified:
            np.testing.assert_array_equal(res.v_sequence.ravel(), free)


def test_certificate_guard_scales_with_the_world_not_its_square():
    # The rounding guard bounds each column block by the size of its own
    # lift entries. With the box at 2e3 m, the state 1e3 m from the goal
    # and an obstacle 1 m from the free plan's fifth position, sized so
    # that the plan clears it by 1e-3 in h, the step is certified: one SQP
    # iteration and no QP. A guard of max(1, z0'z0) times the largest row
    # sum is about 1e-2 here and sends the step to the SQP.
    big = 1e3
    cfg = MpcConfig(pos_min=[-2 * big, -2 * big], pos_max=[2 * big, 2 * big],
                    v_min=[-1e7, -1e7], v_max=[1e7, 1e7])
    z0 = np.array([0.7 * big, -0.5, 0.7 * big, 0.3])
    ws = LinearMpc(cfg).workspace
    pos = ws.pos_f @ z0 + ws.pos_maps @ (ws.free_map @ z0)
    center = pos[4] + np.array([0.0, -1.0])
    r_sq = np.min(np.sum((pos[1:] - center) ** 2, axis=1)) - 1e-3
    controller = LinearMpc(cfg, [Obstacle(center[0], center[1],
                                          math.sqrt(r_sq - 2.0 * FEAS_TOL))],
                           mode="euclid")
    lifted, exact = _lifted_and_exact_barrier_rows(controller.workspace, z0, 0.0)
    assert abs(np.min(exact) - 1e-3) < 1e-6
    step = controller.solve(z0)
    assert step.status == "optimal"
    assert (step.sqp_iterations, step.qp_iterations_total) == (1, 0)
    np.testing.assert_array_equal(step.v_sequence.ravel(),
                                  controller.workspace.free_map @ z0)
