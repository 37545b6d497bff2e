"""Closed-loop execution: sample, measure, solve, actuate, integrate.

The scenario's mode fixes the controller and the plant once per run;
every step then reads the plant's float state (optionally through
additive Gaussian measurement noise), solves, logs the call's outcome,
applies the first planned input and integrates with RK4. The log is the
one record of the run. In cbf and euclid mode the
controller measures the linear coordinates, and the linearizing feedback
runs inside the integration of the extended unicycle with v held, so the
realized motion tracks the discrete prediction model. In nmpc mode the
baseline measures the pose and drives the plain unicycle directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dfl import DflGuard, closed_loop_rhs, dfl_control, map_x_array_to_z
from .errors import ConfigError, InfeasibleError, flag, integer, real
from .mpc import LinearMpc, MpcConfig, NonlinearMpc
from .model import (ExtendedState, RobotParams, rk4_step, unicycle_rhs,
                    unicycle_to_wheel)
from .safety import barrier_xy

__all__ = [
    "NoiseConfig",
    "Scenario",
    "StepRecord",
    "RunSummary",
    "TrajectoryLog",
    "run_closed_loop",
    "inject_noise",
    "cost_sequence",
    "first_deviation_step",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Additive Gaussian measurement noise on the pose states.

    The mask selects which of (x1, x2, x3) are corrupted; the speed state
    is controller-internal and is never corrupted. The seed, a nonnegative
    integer, fixes the full noise stream, making runs reproducible.
    """

    enabled: bool = False
    variance: float = 0.05
    seed: int = 0
    mask: tuple = (True, True, True)

    def __post_init__(self):
        flag(self.enabled, "noise.enabled")
        real(self.variance, "noise.variance", minimum=0.0)
        if not isinstance(self.mask, (tuple, list)) or len(self.mask) != 3:
            raise ConfigError("noise.mask must hold 3 flags")
        object.__setattr__(self, "mask", tuple(flag(f, "noise.mask")
                                               for f in self.mask))
        object.__setattr__(self, "seed", integer(self.seed, "noise.seed"))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop run."""

    start: ExtendedState
    goal: tuple = (0.0, 0.0)
    obstacles: tuple = ()
    mpc: MpcConfig = field(default_factory=MpcConfig)
    guard: DflGuard = field(default_factory=DflGuard)
    duration: float = 30.0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    mode: str = "cbf"
    substeps: int = 1
    robot: RobotParams = field(default_factory=RobotParams)

    def __post_init__(self):
        real(self.duration, "duration")
        if self.n_steps < 1:
            raise ConfigError(f"duration must cover at least one sample of "
                              f"{self.mpc.ts:g} s, not {self.duration!r}")
        if self.mode not in ("cbf", "euclid", "nmpc"):
            raise ConfigError(f"unknown mode '{self.mode}'")
        object.__setattr__(self, "substeps",
                           integer(self.substeps, "substeps", 1))
        for key, value in vars(self.start).items():
            real(value, f"start.{key}")
        real(self.start.zeta, "start.zeta", minimum=0.0)
        for value in self.goal:
            real(value, "goal")

    @property
    def n_steps(self) -> int:
        """The run's control steps: the duration in samples, rounded."""
        return int(round(self.duration / self.mpc.ts))


@dataclass
class StepRecord:
    """One control step: sampled state, applied inputs, and diagnostics."""

    t: float
    x1: float
    x2: float
    x3: float
    zeta: float
    u1: float
    u2: float
    omega_r: float
    omega_l: float
    v1: float
    v2: float
    barriers: tuple
    distances: tuple
    cost: float
    sqp_iterations: int
    solve_time: float


@dataclass
class RunSummary:
    min_distance: float
    final_position_error: float
    steps: int


@dataclass
class TrajectoryLog:
    """One run: its per-step records, the outcome of each controller call
    and its summary statistics.

    calls holds (status, sqp_iterations, qp_iterations_total) of every
    controller call in order: one per record, then the infeasible call
    that ended the run when it aborted. Every log has at least one record.
    """

    scenario: Scenario
    records: list
    calls: list
    aborted: bool
    final_state: np.ndarray

    @property
    def summary(self) -> RunSummary:
        rec = self.records
        gx, gy = self.scenario.goal
        final = math.hypot(rec[-1].x1 - gx, rec[-1].x2 - gy)
        if self.scenario.obstacles:
            min_dist = min(min(r.distances) for r in rec)
        else:
            min_dist = math.inf
        return RunSummary(
            min_distance=min_dist,
            final_position_error=final,
            steps=len(rec),
        )


def inject_noise(x, variance: float, rng: np.random.Generator,
                 mask=(True, True, True)):
    """Corrupt the pose measurement with independent Gaussian draws.

    x is the plant state, a sequence (x1, x2, heading) with zeta after
    them if present. Only the masked pose states are touched and zeta
    passes through, into a new list; x itself is returned at zero
    variance and is never written into.
    """
    variance = real(variance, "variance", minimum=0.0)
    if variance == 0.0:
        return x
    draws = rng.normal(0.0, math.sqrt(variance), size=3)
    measured = list(x)
    for i in range(3):
        if mask[i]:
            measured[i] += draws[i]
    return measured


def run_closed_loop(sc: Scenario) -> TrajectoryLog:
    """Execute one receding-horizon run and log every control step and
    the outcome of every controller call.

    Requires a safe initial state (nonnegative barrier for every
    obstacle). A solver failure at the first step raises InfeasibleError;
    a failure later truncates the log and marks the run aborted.
    """
    obstacles = sc.obstacles
    for obs in obstacles:
        if barrier_xy(sc.start.x1, sc.start.x2, obs) < 0.0:
            raise InfeasibleError(
                "initial state lies inside an obstacle, the run is infeasible at k=0"
            )
    # The plant state is a list of floats, (x1, x2, heading, zeta), which
    # the step reads directly: the linear controller measures its map to z
    # and the plant runs the linearizing feedback. In nmpc mode the state
    # is the pose alone, which the baseline measures and whose bare
    # unicycle it drives.
    nmpc = sc.mode == "nmpc"
    x = [float(v) for v in sc.start.as_array()]
    guard = sc.guard
    if nmpc:
        controller = NonlinearMpc(sc.mpc, obstacles=obstacles, goal=sc.goal)
        x = x[:3]
        rhs = unicycle_rhs
    else:
        controller = LinearMpc(sc.mpc, obstacles=obstacles, goal=sc.goal,
                               mode=sc.mode)
        rhs = lambda state, v: closed_loop_rhs(state, v, guard)
    noise = sc.noise
    rng = np.random.default_rng(np.random.SeedSequence(noise.seed))
    ts, robot, substeps = sc.mpc.ts, sc.robot, sc.substeps
    h = ts / substeps
    records = []
    calls = []
    aborted = False

    for k in range(sc.n_steps):
        measured = x
        if noise.enabled:
            measured = inject_noise(x, noise.variance, rng, noise.mask)
        res = controller.solve(measured if nmpc else map_x_array_to_z(measured))
        calls.append((res.status, res.sqp_iterations, res.qp_iterations_total))
        if res.status == "infeasible":
            if k == 0:
                raise InfeasibleError("optimization infeasible at k=0")
            aborted = True
            break

        # The first planned input: the unicycle input itself in nmpc mode,
        # else the virtual input v that the feedback turns into it.
        v = res.v_sequence[0].tolist()
        if nmpc:
            (u1, u2), v1, v2 = v, 0.0, 0.0
            speed = u1
        else:
            u1, u2 = dfl_control(x, v, guard)
            speed = x[3]
            v1, v2 = v
        omega_r, omega_l = unicycle_to_wheel(speed, u2, robot)
        px, py = x[0], x[1]
        barriers = distances = ()
        for obs in obstacles:
            barriers += (barrier_xy(px, py, obs),)
            distances += (math.hypot(px - obs.x, py - obs.y) - obs.radius,)
        records.append(StepRecord(
            k * ts, px, py, x[2], speed, u1, u2, omega_r, omega_l, v1, v2,
            barriers, distances, res.cost, res.sqp_iterations,
            res.solve_time))
        for _ in range(substeps):
            x = rk4_step(rhs, x, v, h)

    return TrajectoryLog(scenario=sc, records=records, calls=calls,
                         aborted=aborted, final_state=np.array(x))


def cost_sequence(log: TrajectoryLog):
    """Optimal costs J*(k) and the descent margins of consecutive steps.

    margin[k] = J*(k+1) - J*(k) + stage(k) with the stage cost evaluated
    at the logged state and applied input in goal-centered coordinates.
    Meaningful for runs of the linear scheme where no constraint is
    active; margins should then be at most roundoff.
    """
    cfg = log.scenario.mpc
    gx, gy = log.scenario.goal
    goal_z = np.array([gx, 0.0, gy, 0.0])
    costs = np.array([r.cost for r in log.records])
    margins = np.empty(max(len(costs) - 1, 0))
    for k in range(len(costs) - 1):
        r = log.records[k]
        z = map_x_array_to_z(np.array([r.x1, r.x2, r.x3, r.zeta])) - goal_z
        v = np.array([r.v1, r.v2])
        stage = float(z @ cfg.Q @ z + v @ cfg.R @ v)
        margins[k] = costs[k + 1] - costs[k] + stage
    return costs, margins


def first_deviation_step(log: TrajectoryLog, threshold: float = 0.05):
    """First step whose lateral offset from the start-goal line exceeds
    the threshold, or None if the whole run stays within it."""
    sx, sy = log.records[0].x1, log.records[0].x2
    gx, gy = log.scenario.goal
    dx, dy = gx - sx, gy - sy
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return None
    for k, r in enumerate(log.records):
        lateral = abs((r.x1 - sx) * dy - (r.x2 - sy) * dx) / norm
        if lateral > threshold:
            return k
    return None
