import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (comparison_scenario, nominal_scenario,
                      regulation_scenario, tuned_mpc_config)
from scmpc import (ConfigError, ExtendedState, InfeasibleError, MpcConfig,
                   NoiseConfig, Obstacle, Scenario, cost_sequence,
                   first_deviation_step, run_closed_loop)
from scmpc.dfl import closed_loop_rhs, dfl_control
from scmpc.model import rk4_step, unicycle_rhs, unicycle_to_wheel
from scmpc.mpc import LinearMpc, NonlinearMpc
from scmpc.safety import barrier_xy
from scmpc.sim import StepRecord, inject_noise


def test_scenario_validation():
    # A duration must round to at least one sample of 0.05 s, so every log
    # has a step: 0.025 s is half a sample and rounds to 0.
    for duration in (0.0, math.inf, math.nan, True, "3", 0.01, 0.025):
        with pytest.raises(ConfigError, match="duration"):
            Scenario(start=ExtendedState(0, 0, 0, 0.5), duration=duration)
    with pytest.raises(ConfigError):
        Scenario(start=ExtendedState(0, 0, 0, 0.5), mode="wrong")
    with pytest.raises(ConfigError):
        Scenario(start=ExtendedState(0, 0, 0, -0.1))
    with pytest.raises(ConfigError, match="start"):
        Scenario(start=ExtendedState(math.nan, 0, 0, 0.5))
    with pytest.raises(ConfigError, match="goal"):
        Scenario(start=ExtendedState(0, 0, 0, 0.5), goal=(0.0, math.nan))
    for substeps in (2.5, 0, "2", True):
        with pytest.raises(ConfigError, match="substeps"):
            Scenario(start=ExtendedState(0, 0, 0, 0.5), substeps=substeps)
    # bool("false") is True; the seed must suit np.random.SeedSequence.
    for kwargs in ({"enabled": "false"}, {"mask": ("no", "no", "no")},
                   {"mask": (1, 1, 0)}, {"mask": (True, True)},
                   {"seed": 1.5}, {"seed": -1}, {"seed": "3"},
                   {"variance": float("nan")}, {"variance": float("inf")},
                   {"variance": -0.1}, {"variance": "big"},
                   {"variance": True}):
        with pytest.raises(ConfigError, match="noise"):
            NoiseConfig(**kwargs)
    noise = NoiseConfig(enabled=True, seed=4.0, mask=(True, False, True))
    assert noise.seed == 4 and isinstance(noise.seed, int)
    # An integral float is stored as an int and runs.
    sc = nominal_scenario(substeps=2.0, duration=0.2)
    assert sc.substeps == 2 and isinstance(sc.substeps, int)
    assert len(run_closed_loop(sc).records) == sc.n_steps == 4
    assert nominal_scenario(duration=0.03).n_steps == 1


def test_regulation_run_converges():
    sc = Scenario(start=ExtendedState(7.0, 7.0, math.pi, 0.5),
                  mpc=MpcConfig(v_min=[-20, -20], v_max=[20, 20]),
                  duration=30.0)
    log = run_closed_loop(sc)
    assert not log.aborted
    assert log.summary.steps == 600
    assert log.summary.final_position_error < 0.1


def test_nominal_avoidance_run():
    log = run_closed_loop(nominal_scenario())
    s = log.summary
    assert not log.aborted
    assert s.min_distance > 0.0
    assert s.final_position_error < 0.1
    assert min(min(r.barriers) for r in log.records) >= -1e-6


def test_gamma_one_grazes_closer_than_gamma_small():
    tight = run_closed_loop(nominal_scenario(gamma=1.0)).summary.min_distance
    wide = run_closed_loop(nominal_scenario(gamma=0.1)).summary.min_distance
    assert tight < wide


def test_plant_barrier_floor_with_fine_integration():
    # gamma = 1 rides the boundary; a finer plant step keeps the realized
    # barrier within the solver feasibility tolerance.
    log = run_closed_loop(nominal_scenario(gamma=1.0, substeps=4))
    assert not log.aborted
    assert min(min(r.barriers) for r in log.records) >= -1e-6


@pytest.mark.parametrize("mode, gamma", [("euclid", 0.1), ("cbf", 0.9)])
def test_collinear_start_reverses_round_the_obstacle(mode, gamma):
    # Aimed at the goal through the obstacle's centre, the robot has to
    # back up and steer while reversing: a law that zeroes the turn rate
    # for every zeta < 0 stalls it 6.78 m from the goal.
    sc = nominal_scenario(gamma=gamma, mode=mode, heading=-0.75 * math.pi,
                          duration=10.0)
    log = run_closed_loop(sc)
    assert not log.aborted
    assert log.summary.final_position_error < 0.05
    assert log.summary.min_distance > 0.0
    assert min(r.zeta for r in log.records) < -sc.guard.zeta_threshold


def test_forward_invariance_and_realized_decay_chain():
    # Realized trajectory keeps the barrier safe, and consecutive plant
    # states respect the decay constraint to the solver tolerance (the
    # finer plant step separates integration error from control error).
    log = run_closed_loop(nominal_scenario(substeps=2))
    assert not log.aborted
    hs = [r.barriers[0] for r in log.records]
    assert min(hs) >= -1e-9
    gamma = log.scenario.mpc.gamma
    worst = min(hs[k + 1] - (1.0 - gamma) * hs[k] for k in range(len(hs) - 1))
    assert worst >= -1e-6


def test_inject_noise_zero_variance_is_identity():
    rng = np.random.default_rng(0)
    x = [1.0, 2.0, 0.3, 0.7]
    assert inject_noise(x, 0.0, rng) is x


@pytest.mark.parametrize("variance", [float("nan"), float("inf"), True,
                                      "0.05", -1.0])
def test_inject_noise_rejects_a_bad_variance(variance):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="variance"):
        inject_noise([1.0, 2.0, 0.3, 0.7], variance, rng)


def test_inject_noise_statistics():
    rng = np.random.default_rng(22)
    x = [0.0, 0.0, 0.0, 1.0]
    samples = np.array([inject_noise(x, 0.05, rng)[0] for _ in range(100000)])
    assert abs(samples.mean()) < 0.01
    assert abs(samples.var() - 0.05) < 0.05 * 0.05


def test_inject_noise_respects_mask_and_speed():
    rng = np.random.default_rng(23)
    x = [1.0, 2.0, 0.3, 0.7]
    out = inject_noise(x, 0.05, rng, mask=(True, False, False))
    assert out[0] != x[0]
    assert out[1:] == x[1:]
    assert x == [1.0, 2.0, 0.3, 0.7]  # the plant state is not touched
    pose = inject_noise((1.0, 2.0, 0.3), 0.05, rng)  # nmpc: no zeta
    assert len(pose) == 3 and pose[2] != 0.3


@pytest.mark.parametrize("mode", ["cbf", "nmpc"])
def test_noise_stream_determinism(mode):
    a = run_closed_loop(nominal_scenario(mode=mode, noise_seed=5, duration=5.0))
    b = run_closed_loop(nominal_scenario(mode=mode, noise_seed=5, duration=5.0))
    assert len(a.records) == len(b.records) > 1
    names = [f.name for f in fields(StepRecord) if f.name != "solve_time"]
    for ra, rb in zip(a.records, b.records):
        for name in names:
            assert getattr(ra, name) == getattr(rb, name)
    assert np.array_equal(a.final_state, b.final_state)


@pytest.mark.parametrize("sc", [
    nominal_scenario(noise_seed=0, duration=5.0),
    nominal_scenario(mode="euclid", duration=5.0),
    nominal_scenario(mode="nmpc", substeps=2, duration=2.0),
], ids=["cbf-noise0", "euclid", "nmpc-substeps2"])
def test_records_agree_with_the_models_bit_for_bit(sc, monkeypatch):
    # Every logged field is recomputed from the logged plant state with the
    # package's one copy of each formula, and the logged plant state of the
    # next step (or the final state) is the RK4 integration of this one.
    plans = []
    for cls in (LinearMpc, NonlinearMpc):
        def recorded(self, z0, _solve=cls.solve):
            res = _solve(self, z0)
            plans.append(tuple(res.v_sequence[0].tolist()))
            return res
        monkeypatch.setattr(cls, "solve", recorded)
    log = run_closed_loop(sc)
    nmpc = sc.mode == "nmpc"
    h = sc.mpc.ts / sc.substeps
    assert len(log.records) > 1
    for k, r in enumerate(log.records):
        x = [r.x1, r.x2, r.x3] if nmpc else [r.x1, r.x2, r.x3, r.zeta]
        if nmpc:
            assert (r.u1, r.u2) == plans[k] and r.zeta == r.u1
            assert (r.v1, r.v2) == (0.0, 0.0)
            rhs, u = unicycle_rhs, (r.u1, r.u2)
        else:
            assert (r.v1, r.v2) == plans[k]
            assert (r.u1, r.u2) == dfl_control(x, plans[k], sc.guard)
            rhs = lambda s, v: closed_loop_rhs(s, v, sc.guard)
            u = (r.v1, r.v2)
        assert (r.omega_r, r.omega_l) == unicycle_to_wheel(r.zeta, r.u2,
                                                           sc.robot)
        assert r.barriers == tuple(barrier_xy(r.x1, r.x2, o)
                                   for o in sc.obstacles)
        assert r.distances == tuple(math.hypot(r.x1 - o.x, r.x2 - o.y)
                                    - o.radius for o in sc.obstacles)
        for _ in range(sc.substeps):
            x = rk4_step(rhs, x, u, h)
        if k + 1 < len(log.records):
            nxt = log.records[k + 1]
            assert x == ([nxt.x1, nxt.x2, nxt.x3] if nmpc
                         else [nxt.x1, nxt.x2, nxt.x3, nxt.zeta])
        else:
            assert x == log.final_state.tolist()


def test_cost_sequence_descends_without_constraints():
    log = run_closed_loop(regulation_scenario())
    costs, margins = cost_sequence(log)
    assert np.max(margins) <= 1e-6
    assert np.min(costs) < 1e-6


def test_cost_sequence_converges_to_zero():
    log = run_closed_loop(regulation_scenario())
    costs, _ = cost_sequence(log)
    assert costs[-1] < 1e-6


def test_actuation_guard_consistency():
    # Start below the speed threshold: the first logged turn rate must be
    # zero, and every record obeys the guard.
    sc = nominal_scenario(zeta0=0.005, duration=2.0)
    log = run_closed_loop(sc)
    assert log.records[0].u2 == 0.0
    for r in log.records:
        if r.zeta <= sc.guard.zeta_threshold:
            assert r.u2 == 0.0
    # the guarded phase also shows up in the obstacle-free regulation run,
    # where the speed crosses zero at the reversal
    reg = run_closed_loop(regulation_scenario())
    crossed = [r for r in reg.records if r.zeta <= reg.scenario.guard.zeta_threshold]
    assert crossed, "speed never entered the guarded band"
    assert all(r.u2 == 0.0 for r in crossed)


def test_infeasible_at_start_raises():
    # starting inside the obstacle violates the initial-safety requirement
    sc = nominal_scenario()
    bad = Scenario(start=ExtendedState(3.5, 3.5, 0.0, 0.5),
                   obstacles=sc.obstacles, mpc=sc.mpc, duration=1.0)
    with pytest.raises(InfeasibleError):
        run_closed_loop(bad)
    # safe start, but no input authority while coasting at the obstacle
    cfg = tuned_mpc_config(v_min=[-1e-9, -1e-9], v_max=[1e-9, 1e-9])
    blocked = Scenario(start=ExtendedState(5.2, 3.5, math.pi, 2.0),
                       obstacles=(Obstacle(3.5, 3.5, 1.5),), mpc=cfg,
                       duration=1.0)
    with pytest.raises(InfeasibleError):
        run_closed_loop(blocked)


def _midrun_infeasible_scenario():
    # Weak input authority and a head-on approach: the first solves are
    # feasible, the decay chain fails once the robot has committed.
    cfg = MpcConfig(gamma=0.1, horizon=8, constraint_horizon=0,
                    R=np.diag([10.0, 10.0]), v_min=[-0.5, -0.5],
                    v_max=[0.5, 0.5])
    return Scenario(start=ExtendedState(5.0, 0.0, math.pi, 1.0),
                    obstacles=(Obstacle(1.8, 0.0, 0.5),), goal=(0.0, 0.0),
                    mpc=cfg, duration=8.0)


def test_midrun_infeasibility_aborts_with_partial_log():
    log = run_closed_loop(_midrun_infeasible_scenario())
    assert log.aborted
    assert 0 < len(log.records) < 100


@pytest.mark.parametrize("sc", [
    nominal_scenario(duration=10.0),
    nominal_scenario(mode="nmpc", duration=2.0),
    _midrun_infeasible_scenario(),
], ids=["cbf", "nmpc", "midrun-abort"])
def test_log_keeps_each_calls_outcome(sc):
    # One call per record, in order, then the infeasible call that ended
    # an aborted run; every recorded step took at least one SQP iteration.
    log = run_closed_loop(sc)
    n = len(log.records)
    assert len(log.calls) == n + log.aborted
    assert [c[1] for c in log.calls[:n]] == [r.sqp_iterations
                                             for r in log.records]
    assert min(c[1] for c in log.calls[:n]) >= 1
    assert all(c[0] in ("optimal", "max_iter") for c in log.calls[:n])
    assert log.aborted == (log.calls[-1][0] == "infeasible")

def test_first_deviation_step_ordering_between_modes():
    cbf = run_closed_loop(comparison_scenario("cbf"))
    euclid = run_closed_loop(comparison_scenario("euclid"))
    k_cbf = first_deviation_step(cbf, 0.05)
    k_euclid = first_deviation_step(euclid, 0.05)
    assert k_cbf is not None and k_euclid is not None
    assert k_cbf < k_euclid


def test_nonzero_goal_regulation():
    # Goals shift the linear coordinates; the controller regulates to them.
    cfg = MpcConfig(v_min=[-20, -20], v_max=[20, 20])
    sc = Scenario(start=ExtendedState(-3.0, 4.0, 0.0, 0.5), goal=(2.0, -1.0),
                  mpc=cfg, duration=20.0)
    log = run_closed_loop(sc)
    assert not log.aborted
    assert log.summary.final_position_error < 0.05
    assert math.hypot(log.records[-1].x1 - 2.0, log.records[-1].x2 + 1.0) < 0.05


def test_multi_obstacle_run_avoids_both():
    cfg = tuned_mpc_config()
    sc = Scenario(start=ExtendedState(7.0, 7.0, math.pi, 0.5),
                  obstacles=(Obstacle(4.5, 4.5, 1.0), Obstacle(2.0, 2.0, 0.8)),
                  mpc=cfg, duration=30.0)
    log = run_closed_loop(sc)
    assert not log.aborted
    assert log.summary.final_position_error < 0.1
    for i in range(len(sc.obstacles)):
        assert min(r.distances[i] for r in log.records) > 0.0
    assert all(len(r.barriers) == 2 and len(r.distances) == 2
               for r in log.records)


def test_nmpc_mode_closed_loop():
    sc = nominal_scenario(mode="nmpc")
    log = run_closed_loop(sc)
    s = log.summary
    assert not log.aborted
    assert s.min_distance > 0.0
    assert s.final_position_error < 0.1
    # virtual-input columns are not meaningful for the baseline
    assert all(r.v1 == 0.0 and r.v2 == 0.0 for r in log.records)


def test_final_state_is_a_float_array_of_the_plant():
    # The plant runs on floats; the log still hands back a float64 array:
    # (x1, x2, heading, zeta), or the pose alone in nmpc mode.
    for mode, size in (("cbf", 4), ("euclid", 4), ("nmpc", 3)):
        log = run_closed_loop(nominal_scenario(mode=mode, duration=0.5))
        assert isinstance(log.final_state, np.ndarray)
        assert log.final_state.dtype == np.float64
        assert log.final_state.shape == (size,)
        assert np.all(np.isfinite(log.final_state))


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    clearance, error = (float(tok) for tok in capsys.readouterr().out.split())
    assert math.isfinite(clearance) and clearance > 0.0
    assert math.isfinite(error)
