"""Closed-loop execution: sample, measure, solve, actuate, integrate.

The scenario's mode fixes the controller, the measurement, the plant and
the actuation once per run; every step then samples the plant (optionally
through additive Gaussian measurement noise), solves, applies the first
planned input and integrates with RK4. In cbf and euclid mode the
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
from .model import (ExtendedState, RobotParams, UnicycleInput, rk4_step,
                    unicycle_rhs, unicycle_to_wheel)
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
        real(self.duration, "duration", above=0.0)
        if self.mode not in ("cbf", "euclid", "nmpc"):
            raise ConfigError(f"unknown mode '{self.mode}'")
        object.__setattr__(self, "substeps",
                           integer(self.substeps, "substeps", 1))
        for key, value in vars(self.start).items():
            real(value, f"start.{key}")
        real(self.start.zeta, "start.zeta", minimum=0.0)
        for value in self.goal:
            real(value, "goal")


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
    """Per-step records of one run plus its summary statistics."""

    scenario: Scenario
    records: list
    aborted: bool
    final_state: np.ndarray

    @property
    def summary(self) -> RunSummary:
        rec = self.records
        if not rec:
            return RunSummary(math.inf, math.inf, 0)
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


def inject_noise(s: ExtendedState, variance: float, rng: np.random.Generator,
                 mask=(True, True, True)) -> ExtendedState:
    """Corrupt the pose measurement with independent Gaussian draws.

    Only the masked pose states are touched; the plant state itself and
    the speed state are left unchanged.
    """
    variance = real(variance, "variance", minimum=0.0)
    if variance == 0.0:
        return s
    sigma = math.sqrt(variance)
    draws = rng.normal(0.0, sigma, size=3)
    vals = [s.x1, s.x2, s.x3]
    for i in range(3):
        if mask[i]:
            vals[i] += draws[i]
    return ExtendedState(vals[0], vals[1], vals[2], s.zeta)


def _distances(x1, x2, obstacles):
    return tuple(math.hypot(x1 - o.x, x2 - o.y) - o.radius for o in obstacles)


def _barriers(x1, x2, obstacles):
    return tuple(barrier_xy(x1, x2, o) for o in obstacles)


def run_closed_loop(sc: Scenario) -> TrajectoryLog:
    """Execute one receding-horizon run and log every control step.

    Requires a safe initial state (nonnegative barrier for every
    obstacle). A solver failure at the first step raises InfeasibleError;
    a failure later truncates the log and marks the run aborted.
    """
    for obs in sc.obstacles:
        if barrier_xy(sc.start.x1, sc.start.x2, obs) < 0.0:
            raise InfeasibleError(
                "initial state lies inside an obstacle, the run is infeasible at k=0"
            )
    # The mode fixes the controller and the plant interface once. The plant
    # state is a list of floats: (x1, x2, heading, zeta), without zeta in
    # nmpc mode. actuate gives the applied (u1, u2), the speed that drives
    # the wheels and is logged as zeta, and the logged virtual input.
    x = [float(v) for v in sc.start.as_array()]
    if sc.mode == "nmpc":
        controller = NonlinearMpc(sc.mpc, obstacles=sc.obstacles, goal=sc.goal)
        x = x[:3]
        sample = lambda state: ExtendedState(*state, 0.0)
        measure = lambda s: s.as_array()[:3]
        rhs = unicycle_rhs
        actuate = lambda s, v: (v, v[0], (0.0, 0.0))
    else:
        controller = LinearMpc(sc.mpc, obstacles=sc.obstacles, goal=sc.goal,
                               mode=sc.mode)
        sample = lambda state: ExtendedState(*state)
        measure = lambda s: map_x_array_to_z(s.as_array())
        rhs = lambda state, v: closed_loop_rhs(state, v, sc.guard)
        actuate = lambda s, v: (dfl_control(s, v, sc.guard), s.zeta, v)
    rng = np.random.default_rng(np.random.SeedSequence(sc.noise.seed))
    ts = sc.mpc.ts
    n_steps = int(round(sc.duration / ts))
    h = ts / sc.substeps
    records = []
    aborted = False

    for k in range(n_steps):
        plant_state = sample(x)
        measured = plant_state
        if sc.noise.enabled:
            measured = inject_noise(plant_state, sc.noise.variance, rng,
                                    sc.noise.mask)
        res = controller.solve(measure(measured))
        if res.status == "infeasible":
            if k == 0:
                raise InfeasibleError("optimization infeasible at k=0")
            aborted = True
            break

        v = (float(res.v_sequence[0, 0]), float(res.v_sequence[0, 1]))
        (u1, u2), speed, v_log = actuate(plant_state, v)
        wheels = unicycle_to_wheel(UnicycleInput(speed, u2), sc.robot)
        for _ in range(sc.substeps):
            x = rk4_step(rhs, x, v, h)

        records.append(StepRecord(
            t=k * ts,
            x1=plant_state.x1, x2=plant_state.x2, x3=plant_state.x3,
            zeta=speed,
            u1=u1, u2=u2,
            omega_r=wheels.omega_r, omega_l=wheels.omega_l,
            v1=v_log[0], v2=v_log[1],
            barriers=_barriers(plant_state.x1, plant_state.x2, sc.obstacles),
            distances=_distances(plant_state.x1, plant_state.x2, sc.obstacles),
            cost=res.cost,
            sqp_iterations=res.sqp_iterations,
            solve_time=res.solve_time,
        ))

    return TrajectoryLog(scenario=sc, records=records, aborted=aborted,
                         final_state=np.array(x))


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
    if not log.records:
        return None
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
