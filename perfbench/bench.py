"""Workloads, timed rounds, output checks and metrics of the benchmark.

One control step is one operation. A workload is a fixed list of
closed-loop episodes; one *round* runs that list once. Every input is the
same for every benchmark seed, which is only recorded (COURSE_NOISE_SEEDS
says why the noisy workload does not draw from it). A run repeats rounds
and keeps, for every step, the fastest of its repetitions: every round
does identical work (the rounds are checked to produce identical
trajectories), so the minimum is the reading least disturbed by other
load on the machine, which on a shared host can slow a core by a factor
of two for seconds at a time. The estimator needs ten or more rounds per
run, which is why BENCHMARK.json lists only the workloads whose rounds
are short enough (BENCHMARK_WORKLOADS).
"""

import csv
import gc
import importlib
import io
import json
import math
import os
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tracing import StepRecorder, Tracer

TS = 0.05
CONFIG = Path("configs/nominal.json")
OUT = Path(".perfbench_out")
SETUP_REPEATS = 15
SETUP_PER_ROUND = 3  # more set-ups after every timed round
MIN_ROUNDS = 2
# SCMPC_THREADS for the sweep. With two workers on two cores each step's
# solve time mostly measures waiting for the interpreter lock (the pool
# gives no speedup), so the sweep runs its points one after another.
SWEEP_THREADS = 1

# Why each workload is here; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "nominal-cbf": "paper headline run; warm start works, so the QP has its "
                   "largest share and the tail is the SQP startup transient",
    "obstacle-course": "three obstacles at N=14 under measurement noise: "
                       "42 barrier rows per SQP iteration and spoiled warm starts",
    "nmpc-baseline": "nonlinear baseline; bypasses build_qcqp and barrier rows "
                     "and carries the max_iter steps",
    "gamma-sweep": "cli.run sweep over 6 gammas on one worker with CSV and "
                   "summary output; the only workload that exercises the cli layer",
}
# The workloads BENCHMARK.json lists: those whose rounds are short enough
# for the per-step minimum to be steady. obstacle-course rounds take
# about 13 s and nmpc-baseline rounds about 10 s (9 s in its 54 max_iter
# steps), so a 60 s run gets only four to six rounds. Both stay runnable
# by name.
BENCHMARK_WORKLOADS = ("nominal-cbf", "gamma-sweep")
COURSE_OBSTACLES = ((4.5, 4.5, 1.0), (2.0, 2.0, 0.8), (5.5, 2.0, 0.7))
# The first four noise seeds, not a selection: seed 3 aborts mid-run, so the
# abort is counted in every run. The list is fixed rather than drawn from
# the benchmark seed because about one noise seed in four aborts, and a
# run-to-run change in the number of aborts moves steps_per_s and
# solve_ms.p99 by 20-40 %, more than any bound could allow.
COURSE_NOISE_SEEDS = (0, 1, 2, 3)
# Simulated seconds per episode. Single-episode workloads run 1000 steps so
# that at least ten steps lie beyond the p99 solve time.
LONG_RUN = 50.0
COURSE_RUN = 30.0
# Simulated seconds per sweep point (configs/nominal.json has 30 s). Every
# failed step and every step with more than 5 SQP iterations of the 30 s
# points lies in their first 23 steps; 10 s keeps all of them and 1200
# steps per round, and shortens a round from 5.5 s to about 3 s.
SWEEP_RUN = 10.0


def fresh_import():
    """Import scmpc (and its CLI) from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "scmpc" or m.startswith("scmpc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("scmpc")
    importlib.import_module("scmpc.cli")
    return pkg


def tuned_config(pkg, gamma=0.1, horizon=8):
    """Controller settings of the repository's nominal test scenario."""
    return pkg.MpcConfig(
        horizon=horizon, constraint_horizon=10, gamma=gamma, ts=TS,
        Q=np.diag([1.0, 0.08, 1.0, 0.08]), R=np.diag([0.05, 0.05]),
        v_min=[-50.0, -50.0], v_max=[50.0, 50.0],
        pos_min=[-10.0, -10.0], pos_max=[10.0, 10.0])


def scenario(pkg, mode="cbf", horizon=8, obstacles=((3.5, 3.5, 1.5),),
             noise_seed=None, duration=30.0):
    """Start (7, 7) heading west at speed 0.5, goal at the origin."""
    noise = pkg.NoiseConfig()
    if noise_seed is not None:
        noise = pkg.NoiseConfig(enabled=True, variance=0.05, seed=noise_seed)
    return pkg.Scenario(
        start=pkg.ExtendedState(7.0, 7.0, math.pi, 0.5), goal=(0.0, 0.0),
        obstacles=tuple(pkg.Obstacle(*o) for o in obstacles),
        mpc=tuned_config(pkg, horizon=horizon), duration=duration,
        noise=noise, mode=mode)


@dataclass
class Inputs:
    """What one workload feeds the program: scenarios or a sweep config."""

    scenarios: list = field(default_factory=list)
    config: dict | None = None
    config_path: Path | None = None  # the file cli.run reads


def build_inputs(pkg, workload, scale=1.0):
    """The workload's inputs; ``scale`` shortens episodes for self-tests."""
    if workload == "nominal-cbf":
        return Inputs([scenario(pkg, duration=LONG_RUN * scale)])
    if workload == "obstacle-course":
        return Inputs([
            scenario(pkg, horizon=14, obstacles=COURSE_OBSTACLES,
                     noise_seed=ns, duration=COURSE_RUN * scale)
            for ns in COURSE_NOISE_SEEDS])
    if workload == "nmpc-baseline":
        return Inputs([scenario(pkg, mode="nmpc", duration=LONG_RUN * scale)])
    if workload == "gamma-sweep":
        path = sweep_config(SWEEP_RUN * scale)
        return Inputs(config=pkg.cli.load_config(path), config_path=path)
    raise ValueError(f"unknown workload '{workload}'")


def sweep_config(duration):
    """Write CONFIG with its scenario duration replaced; return the path."""
    cfg = json.loads(CONFIG.read_text())
    cfg["scenario"]["duration"] = duration
    OUT.mkdir(exist_ok=True)
    path = OUT / "sweep-config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def construct_controllers(pkg, inputs):
    """The controllers a round builds, once per distinct configuration."""
    if inputs.config is not None:
        cfg = inputs.config
        return [pkg.LinearMpc(replace(cfg["mpc"], gamma=g), cfg["obstacles"],
                              cfg["goal"], cfg["mode"])
                for g in cfg["sweep"]["gamma"]]
    sc = inputs.scenarios[0]
    if sc.mode == "nmpc":
        return [pkg.NonlinearMpc(sc.mpc, sc.obstacles, sc.goal)]
    return [pkg.LinearMpc(sc.mpc, sc.obstacles, sc.goal, sc.mode)]


def setup(workload, repeats=SETUP_REPEATS):
    """Import, build inputs and construct controllers ``repeats`` times.

    Returns the package and inputs of the last repetition and every
    repetition's wall time. The modules each repetition replaces are
    collected afterwards, so that collecting them does not fall into a
    timed round.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        pkg = fresh_import()
        inputs = build_inputs(pkg, workload)
        construct_controllers(pkg, inputs)
        times.append(time.perf_counter() - t0)
    gc.collect()
    return pkg, inputs, times


@dataclass
class Episode:
    """One closed-loop run as the benchmark observed it."""

    key: str
    planned: int
    walls: np.ndarray  # time from each controller call to the next, s
    solve_ms: np.ndarray  # StepRecord.solve_time of completed steps, ms
    status: list  # per controller call
    sqp_iters: list  # per controller call
    clearance: np.ndarray  # min obstacle clearance per completed step
    final_error: float
    aborted: bool
    trajectory: bytes  # every logged value except solve times
    summary_min_distance: float | None = None  # gamma-sweep: summary.json

    @property
    def completed(self):
        return len(self.solve_ms)


@dataclass
class Round:
    wall: float
    episodes: list
    exit_code: int = 0  # cli.run's return code (gamma-sweep)


def _episode_from_log(sc, log, calls, error):
    records = log.records if log is not None else []
    traj = np.array([[r.x1, r.x2, r.x3, r.zeta, r.u1, r.u2, r.cost,
                      r.sqp_iterations] for r in records]).tobytes()
    if log is not None:
        traj += np.asarray(log.final_state).tobytes()
    return Episode(
        key=f"{sc.mode}-seed{sc.noise.seed}" if sc.noise.enabled else sc.mode,
        planned=int(round(sc.duration / sc.mpc.ts)),
        walls=np.diff([c[0] for c in calls]),
        solve_ms=np.array([r.solve_time * 1e3 for r in records]),
        status=[c[1] for c in calls],
        sqp_iters=[c[2] for c in calls],
        clearance=np.array([min(r.distances) for r in records]),
        final_error=log.summary.final_position_error if records else math.inf,
        aborted=error is not None or log.aborted,
        trajectory=traj,
    )


def run_round(pkg, inputs, out_dir=OUT / "sweep"):
    """Run every episode of the workload once; only controller calls are
    wrapped, to log status and step entry times."""
    rec = StepRecorder()
    t_round = time.perf_counter()
    with rec.install(pkg):
        if inputs.config is not None:
            rnd = _sweep_round(pkg, inputs, out_dir, rec)
        else:
            episodes = []
            for sc in inputs.scenarios:
                rec.by_controller.clear()
                log, error = None, None
                try:
                    log = pkg.sim.run_closed_loop(sc)
                except pkg.InfeasibleError as exc:
                    error = str(exc)
                calls = next(iter(rec.by_controller.values()), [])
                episodes.append(_episode_from_log(sc, log, calls, error))
            rnd = Round(0.0, episodes)
    rnd.wall = time.perf_counter() - t_round
    return rnd


def _sweep_round(pkg, inputs, out_dir, rec):
    cfg = inputs.config
    manifest = pkg.cli.RunManifest(config_path=inputs.config_path,
                                   out_dir=out_dir, sweep=True)
    previous = os.environ.get("SCMPC_THREADS")
    os.environ["SCMPC_THREADS"] = str(SWEEP_THREADS)
    try:
        with redirect_stdout(io.StringIO()):
            code = pkg.cli.run(manifest)
    finally:
        if previous is None:
            del os.environ["SCMPC_THREADS"]
        else:
            os.environ["SCMPC_THREADS"] = previous
    calls_by_gamma = {c.cfg.gamma: calls for c, calls in rec.by_controller.items()}
    summary = json.loads((out_dir / "summary.json").read_text())
    episodes = []
    for entry in summary["runs"]:
        calls = calls_by_gamma.get(entry["gamma"], [])
        planned = int(round(cfg["duration"] / cfg["mpc"].ts))
        if "steps" not in entry:  # the run raised InfeasibleError
            episodes.append(Episode(f"g{entry['gamma']}", planned,
                                    np.diff([c[0] for c in calls]),
                                    np.zeros(0), [c[1] for c in calls],
                                    [c[2] for c in calls], np.zeros(0),
                                    math.inf, True, b""))
            continue
        with open(out_dir / entry["file"], newline="") as fh:
            rows = list(csv.reader(fh))
        head, body = rows[0], np.array(rows[1:], dtype=float).reshape(-1, len(rows[0]))
        dist = [i for i, h in enumerate(head) if h.startswith("dist")]
        solve_col = head.index("solve_ms")
        keep = [i for i in range(len(head)) if i != solve_col]
        episodes.append(Episode(
            key=f"g{entry['gamma']}", planned=planned,
            walls=np.diff([c[0] for c in calls]),
            solve_ms=body[:, solve_col], status=[c[1] for c in calls],
            sqp_iters=[c[2] for c in calls],
            clearance=body[:, dist].min(axis=1),
            final_error=entry["final_position_error"],
            aborted=entry["aborted"], trajectory=body[:, keep].tobytes(),
            summary_min_distance=entry["min_distance"]))
    episodes.sort(key=lambda e: float(e.key[1:]))
    return Round(0.0, episodes, code)


def same_work(a, b):
    """True if two rounds produced identical trajectories and solver logs."""
    return len(a.episodes) == len(b.episodes) and all(
        x.trajectory == y.trajectory and x.status == y.status
        and x.sqp_iters == y.sqp_iters for x, y in zip(a.episodes, b.episodes))


def failures(rnd):
    """Failed steps per cause and in total (a step counts once).

    A completed step fails if its solver status is not optimal or its
    sampled plant clearance is negative; every planned step an abort or an
    InfeasibleError left unrun fails as lost.
    """
    out = {"attempted": 0, "status": 0, "clearance": 0, "abort": 0, "failed": 0}
    for ep in rnd.episodes:
        n = ep.completed
        bad_status = np.array([s != "optimal" for s in ep.status[:n]], dtype=bool)
        bad_clear = ep.clearance < 0.0
        lost = ep.planned - n
        out["attempted"] += ep.planned
        out["status"] += int(bad_status.sum())
        out["clearance"] += int(bad_clear.sum())
        out["abort"] += lost
        out["failed"] += int((bad_status | bad_clear).sum()) + lost
    return out


def check_outputs(workload, rnd):
    """Acceptance bounds the workload mirrors; returns failed check texts."""
    bad = []
    eps = rnd.episodes
    if workload == "nominal-cbf":  # criterion 3
        for ep in eps:
            if ep.aborted or not ep.clearance.min() > 0.0 or not ep.final_error < 0.1:
                bad.append(f"{ep.key}: aborted {ep.aborted}, clearance "
                           f"{ep.clearance.min():.4g}, final error {ep.final_error:.3g}")
    elif workload == "obstacle-course":  # criterion 9; aborts are counted, not gated
        for ep in eps:
            if not ep.aborted and not (ep.clearance.min() > 0.0
                                       and ep.final_error < 0.5):
                bad.append(f"{ep.key}: clearance {ep.clearance.min():.4g}, "
                           f"final error {ep.final_error:.3g}")
    elif workload == "nmpc-baseline":
        for ep in eps:
            if ep.completed and not ep.clearance.min() > 0.0:
                bad.append(f"{ep.key}: clearance {ep.clearance.min():.4g}")
    elif workload == "gamma-sweep":  # criterion 4, on the CSVs the CLI wrote
        expected = 2 if any(ep.aborted for ep in eps) else 0
        if rnd.exit_code != expected:
            bad.append(f"cli.run returned {rnd.exit_code}, expected {expected}")
        mins = [ep.clearance.min() for ep in eps if ep.completed]
        if len(mins) != len(eps) or len(eps) < 2:
            bad.append(f"sweep wrote {len(mins)} complete runs of {len(eps)}")
        elif any(mins[i] < mins[i + 1] for i in range(len(mins) - 1)):
            bad.append(f"min clearance not non-increasing in gamma: {mins}")
        for ep in eps:
            if ep.completed and ep.summary_min_distance != ep.clearance.min():
                bad.append(f"{ep.key}: summary.json min_distance differs from CSV")
    return bad


def step_minima(rounds):
    """Per-step minimum over rounds of solve time (ms) and step wall (s)."""
    solve, walls = [], []
    for i in range(len(rounds[0].episodes)):
        solve.append(np.min([r.episodes[i].solve_ms for r in rounds], axis=0))
        walls.append(np.min([r.episodes[i].walls for r in rounds], axis=0))
    return np.concatenate(solve), np.concatenate(walls)


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else math.nan


def end_to_end(rounds, setup_times):
    """The end-to-end metrics of one run, plus sample counts.

    The step rate divides the completed steps of one round by the sum of
    the per-step minimum times between controller calls plus the
    smallest remainder of a round's wall time (each episode's last step
    and set-up; on the sweep also the controllers' construction and the
    CSV and summary output).
    """
    solve_ms, walls = step_minima(rounds)
    completed = sum(ep.completed for ep in rounds[0].episodes)
    rest = min(r.wall - sum(ep.walls.sum() for ep in r.episodes) for r in rounds)
    rate = completed / (float(walls.sum()) + rest)
    p99 = percentile(solve_ms, 99)
    return {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": rate,
        "solve_ms.p50": percentile(solve_ms, 50),
        "solve_ms.p99": p99,
    }, {"solve_samples": int(solve_ms.size),
        "beyond_p99": int(np.sum(solve_ms > p99)),
        "rounds": len(rounds)}


def _repeat(step, seconds, minimum):
    """Call ``step`` (which returns the wall time it took) ``minimum``
    times, then again while one more call is expected to end within
    ``seconds`` of the start."""
    t0, last, done = time.perf_counter(), 0.0, 0
    while done < minimum or time.perf_counter() - t0 + last <= seconds:
        last = step()
        done += 1


def timed_rounds(pkg, inputs, seconds, between=lambda: None):
    """Untraced rounds filling ``seconds`` (at least MIN_ROUNDS);
    ``between`` is called after every round, outside its timing."""
    rounds = []

    def step():
        rounds.append(run_round(pkg, inputs))
        between()
        return rounds[-1].wall

    _repeat(step, seconds, MIN_ROUNDS)
    return rounds


def traced_round(pkg, inputs, **kwargs):
    """``run_round`` with every layer boundary traced."""
    tracer = Tracer()
    with tracer.install(pkg):
        rnd = run_round(pkg, inputs, **kwargs)
    return rnd, tracer


def traced_rounds(pkg, inputs, seconds):
    """Pairs of an untraced and a traced round filling ``seconds`` (at
    least one pair).

    Returns every round, the per-layer metrics of the fastest traced
    round next to the fastest untraced one, that round's tracer, and the
    problems found: counts that differ between traced rounds or from the
    untraced pass, and self times that do not add up.
    """
    untraced, traced = [], []

    def step():
        untraced.append(run_round(pkg, inputs))
        traced.append(traced_round(pkg, inputs))
        return untraced[-1].wall + traced[-1][0].wall

    _repeat(step, seconds, 1)
    problems = []
    layers = [per_layer(t, r, untraced[0]) for r, t in traced]
    for (rnd, tracer), m in zip(traced, layers):
        problems += trace_problems(tracer, rnd)
        diff = [k for k in DETERMINISTIC if m[k] != layers[0][k]]
        if diff:
            problems.append(f"traced rounds disagree on {diff}")
    for key, value in untraced_counts(untraced[0]).items():
        if layers[0][key] != value:
            problems.append(f"traced {key} {layers[0][key]} != untraced {value}")
    best, tracer = min(traced, key=lambda rt: rt[0].wall)
    metrics = per_layer(tracer, best, min(untraced, key=lambda r: r.wall))
    return untraced + [r for r, _ in traced], metrics, tracer, problems


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of one traced round next to its untraced partner."""
    st = tracer.stat
    qp_calls = st("qp.solve_qp", "calls")
    rows = tracer.count("qp.rows")
    qp_iters = tracer.qp_iters()
    steps = tracer.steps()
    sqp = [s[2] for s in steps]
    status = [s[1] for s in steps]
    fails = failures(untraced)
    cli_runs = tracer.cli_runs()
    completed = sum(ep.completed for ep in untraced.episodes)
    m = {
        "qp.solve_qp.calls": qp_calls,
        "qp.solve_qp.s": st("qp.solve_qp", "s"),
        "qp.iters.total": sum(qp_iters),
        "qp.iters.max": max(qp_iters, default=0),
        "qp.phase1_frac": tracer.count("qp.phase1") / max(qp_calls, 1),
        "qp.infeasible_calls": tracer.count("qp.infeasible"),
        "qp.rows.mean": rows / max(qp_calls, 1),
        "qp.active_frac": tracer.count("qp.active") / max(rows, 1),
        "mpc.solve_sqp.calls": st("mpc.solve_sqp", "calls"),
        "mpc.solve_sqp.s": st("mpc.solve_sqp", "s"),
        "mpc.solve_sqp.self_s": st("mpc.solve_sqp", "self_s"),
        "mpc.barrier_row.value_calls": st("mpc.barrier_row.value", "calls"),
        "mpc.barrier_row.gradient_calls": st("mpc.barrier_row.gradient", "calls"),
        "mpc.barrier_row.s": (st("mpc.barrier_row.value", "s")
                              + st("mpc.barrier_row.gradient", "s")),
        "mpc.sqp_iters.total": sum(sqp),
        "mpc.sqp_iters.p99": percentile(sqp, 99) if sqp else 0.0,
        "mpc.sqp_iters.max": max(sqp, default=0),
        "mpc.soc_qp_calls": (tracer.count("qp.under_sqp")
                             - tracer.count("sqp.iters_in_solve_sqp")),
        "mpc.status.optimal": status.count("optimal"),
        "mpc.status.max_iter": status.count("max_iter"),
        "mpc.status.infeasible": status.count("infeasible"),
        "mpc.gamma_relaxations": (st("mpc.build_qcqp", "calls")
                                  - st("mpc.linear_solve", "calls")
                                  + tracer.count("nmpc.relaxations")),
        "mpc.nmpc_solve.s": st("mpc.nmpc_solve", "s"),
        "mpc.nmpc_solve.self_s": st("mpc.nmpc_solve", "self_s"),
        "mpc.build_qcqp.calls": st("mpc.build_qcqp", "calls"),
        "mpc.build_qcqp.s": st("mpc.build_qcqp", "s"),
        "mpc.controller_init.s": st("mpc.controller_init", "s"),
        "lti.terminal_data.s": st("lti.terminal_data", "s"),
        "dfl.map_x_array_to_z.s": st("dfl.map_x_array_to_z", "s"),
        "dfl.closed_loop_rhs.calls": st("dfl.closed_loop_rhs", "calls"),
        "dfl.closed_loop_rhs.s": st("dfl.closed_loop_rhs", "s"),
        "model.rk4_step.calls": st("model.rk4_step", "calls"),
        "model.rk4_step.self_s": st("model.rk4_step", "self_s"),
        "safety.barrier_xy.calls": st("safety.barrier_xy", "calls"),
        "safety.barrier_xy.s": st("safety.barrier_xy", "s"),
        "sim.steps_over_ts": int(sum(np.sum(ep.solve_ms > TS * 1e3)
                                     for ep in untraced.episodes)),
        "sim.aborted_runs": sum(ep.aborted for ep in untraced.episodes),
        "cli.run_closed_loop.s": st("cli.run_closed_loop", "s"),
        "cli.run_closed_loop.wait_s": sum(w - c for w, c in cli_runs),
        "cli.write_trajectory_csv.s": st("cli.write_trajectory_csv", "s"),
        "cli.parallel_eff": (sum(c for _, c in cli_runs)
                             / traced.wall if cli_runs else 0.0),
        "fail.status_steps": fails["status"],
        "fail.clearance_steps": fails["clearance"],
        "fail.abort_steps": fails["abort"],
        "failed_step_frac": fails["failed"] / fails["attempted"],
        "trace.steps_per_s": completed / traced.wall,
        "trace.overhead_steps_per_s": completed / traced.wall - completed / untraced.wall,
        "trace.spans": tracer.span_count(),
        "trace.self_sum_s": sum(st(n, "self_s") for n in tracer.names_seen()),
        "trace.round_wall_s": traced.wall,
    }
    return m


def trace_problems(tracer, rnd):
    """Self-time sanity: no negative self time, and the self times of all
    spans fit in the round's wall time."""
    bad = [f"{n}: negative self time" for n in tracer.names_seen()
           if tracer.stat(n, "self_s") < -1e-9]
    total = sum(tracer.stat(n, "self_s") for n in tracer.names_seen())
    if total > rnd.wall:
        bad.append(f"self times sum to {total:.4f} s, more than {rnd.wall:.4f} s")
    return bad


# Counts that must repeat exactly between traced rounds.
DETERMINISTIC = ("qp.solve_qp.calls", "qp.iters.total", "qp.iters.max",
                 "qp.infeasible_calls", "qp.rows.mean", "qp.active_frac",
                 "qp.phase1_frac", "mpc.solve_sqp.calls",
                 "mpc.barrier_row.value_calls", "mpc.barrier_row.gradient_calls",
                 "mpc.sqp_iters.total", "mpc.sqp_iters.max", "mpc.soc_qp_calls",
                 "mpc.status.optimal", "mpc.status.max_iter",
                 "mpc.status.infeasible", "mpc.gamma_relaxations",
                 "mpc.build_qcqp.calls", "dfl.closed_loop_rhs.calls",
                 "model.rk4_step.calls", "safety.barrier_xy.calls")


def untraced_counts(rnd):
    """The step counts the untraced pass sees, for comparison with a trace."""
    sqp = [i for ep in rnd.episodes for i in ep.sqp_iters]
    status = [s for ep in rnd.episodes for s in ep.status]
    return {"mpc.sqp_iters.total": sum(sqp), "mpc.sqp_iters.max": max(sqp, default=0),
            "mpc.status.optimal": status.count("optimal"),
            "mpc.status.max_iter": status.count("max_iter"),
            "mpc.status.infeasible": status.count("infeasible")}
