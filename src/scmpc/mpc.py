"""Finite-horizon optimal control problems and their SQP solver.

The linear scheme condenses the double-integrator predictions into the
input sequence, giving a strictly convex quadratic cost, affine rows for
input, position, and terminal constraints, and one quadratic barrier row
per obstacle per step. The barrier rows are the only nonconvexity; the
solver linearizes them about the current iterate, solves the resulting
dense QP with an active-set method, and applies a merit line search on
the original quadratic constraints. Their curvature is constant, so the
QP Hessian is the Hessian of the Lagrangian at the previous QP's
multipliers, convexified by eigenvalue flooring.

The nonlinear baseline hands the same SQP driver a single-shooting
problem on the unicycle model discretized with RK4, relinearizing the
rollout every iteration. It is kept for timing comparisons and
trajectory cross-checks.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .lti import LtiModel, TerminalData, discretize_double_integrator, terminal_data
from .qp import solve_qp
from .safety import Obstacle

__all__ = [
    "MpcConfig",
    "QuadraticRow",
    "QcqpProblem",
    "SolveResult",
    "build_qcqp",
    "solve_sqp",
    "LinearMpc",
    "NonlinearMpc",
    "estimate_flops_ip",
    "estimate_flops_sqp",
]

# SQP termination: QP step and worst row violation at most these, within
# at most MAX_SQP_ITER iterations.
OPT_TOL = 1e-6
FEAS_TOL = 1e-6
MAX_SQP_ITER = 50


def _as_matrix(value, shape, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1 and shape[0] == shape[1] and arr.size == shape[0]:
        arr = np.diag(arr)
    if arr.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}")
    return arr


def _as_vector(value, size, name):
    arr = np.asarray(value, dtype=float).ravel()
    if arr.size != size:
        raise ConfigError(f"{name} must have {size} entries")
    return arr


@dataclass(frozen=True, eq=False)
class MpcConfig:
    """Horizons, weights, bounds, and sampling time of the controller.

    The nmpc_* fields parameterize the nonlinear baseline only: its stage
    and terminal weights act on the pose, and u_min/u_max bound its
    velocity-level inputs.
    """

    horizon: int = 8
    constraint_horizon: int = 10
    gamma: float = 0.1
    ts: float = 0.05
    Q: np.ndarray = field(default_factory=lambda: np.eye(4))
    R: np.ndarray = field(default_factory=lambda: np.diag([0.1, 0.1]))
    v_min: np.ndarray = field(default_factory=lambda: np.array([-10.0, -10.0]))
    v_max: np.ndarray = field(default_factory=lambda: np.array([10.0, 10.0]))
    pos_min: np.ndarray = field(default_factory=lambda: np.array([-10.0, -10.0]))
    pos_max: np.ndarray = field(default_factory=lambda: np.array([10.0, 10.0]))
    u_min: np.ndarray = field(default_factory=lambda: np.array([-2.0, -3.0]))
    u_max: np.ndarray = field(default_factory=lambda: np.array([2.0, 3.0]))
    nmpc_Q: np.ndarray = field(default_factory=lambda: np.diag([1.0, 1.0, 0.0]))
    nmpc_R: np.ndarray = field(default_factory=lambda: np.diag([0.1, 0.1]))
    nmpc_P: np.ndarray = field(default_factory=lambda: np.diag([20.0, 20.0, 0.0]))

    def __post_init__(self):
        if int(self.horizon) < 1:
            raise ConfigError("horizon must be at least 1")
        if int(self.constraint_horizon) < 0:
            raise ConfigError("constraint_horizon must be nonnegative")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
        if not self.ts > 0.0:
            raise ConfigError("ts must be positive")
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "constraint_horizon", int(self.constraint_horizon))
        object.__setattr__(self, "Q", _as_matrix(self.Q, (4, 4), "Q"))
        object.__setattr__(self, "R", _as_matrix(self.R, (2, 2), "R"))
        object.__setattr__(self, "nmpc_Q", _as_matrix(self.nmpc_Q, (3, 3), "nmpc_Q"))
        object.__setattr__(self, "nmpc_R", _as_matrix(self.nmpc_R, (2, 2), "nmpc_R"))
        object.__setattr__(self, "nmpc_P", _as_matrix(self.nmpc_P, (3, 3), "nmpc_P"))
        for name in ("v_min", "v_max", "pos_min", "pos_max", "u_min", "u_max"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), 2, name))
        if not np.all(self.v_min < self.v_max):
            raise ConfigError("v_min must be elementwise below v_max")
        if not np.all(self.pos_min < self.pos_max):
            raise ConfigError("pos_min must be elementwise below pos_max")
        if not np.all(self.u_min < self.u_max):
            raise ConfigError("u_min must be elementwise below u_max")
        if np.min(np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T))) < -1e-12:
            raise ConfigError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(0.5 * (self.R + self.R.T))) <= 0.0:
            raise ConfigError("R must be positive definite")


@dataclass
class QuadraticRow:
    """The barrier constraints c_k(V) >= 0 on the stacked input sequence.

    Row k holds c_k(V) = |p1_k(V) - c_k|^2 - r_k^2
    - decay_k * (|p0_k(V) - c_k|^2 - r_k^2) with affine position maps
    p_k(V) = offset_k + map_k @ V. The K rows are stacked: maps are
    (K, 2, nv), offsets and centers (K, 2), radius_sq and decay (K,). The
    baseline per-step rows use decay = 0, which drops the second term.
    """

    map_next: np.ndarray
    off_next: np.ndarray
    map_prev: np.ndarray
    off_prev: np.ndarray
    center: np.ndarray
    radius_sq: np.ndarray
    decay: np.ndarray
    gram_next: np.ndarray
    gram_prev: np.ndarray

    def __len__(self) -> int:
        return self.radius_sq.shape[0]

    def value(self, v: np.ndarray) -> np.ndarray:
        """The K row values at v."""
        d1 = self.off_next + self.map_next @ v - self.center
        d0 = self.off_prev + self.map_prev @ v - self.center
        return (np.einsum("ki,ki->k", d1, d1) - self.radius_sq
                - self.decay * (np.einsum("ki,ki->k", d0, d0) - self.radius_sq))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """The (K, nv) Jacobian of the row values at v."""
        d1 = self.off_next + self.map_next @ v - self.center
        d0 = self.off_prev + self.map_prev @ v - self.center
        return (2.0 * np.einsum("kin,ki->kn", self.map_next, d1)
                - (2.0 * self.decay)[:, None]
                * np.einsum("kin,ki->kn", self.map_prev, d0))

    def curvature(self, weights: np.ndarray) -> np.ndarray:
        """The (nv, nv) weighted sum of the constant row Hessians."""
        return 2.0 * (np.tensordot(weights, self.gram_next, axes=1)
                      - np.tensordot(weights * self.decay, self.gram_prev,
                                     axes=1))


def _floor_eigenvalues(w: np.ndarray) -> np.ndarray:
    """w with its eigenvalues raised to at least 1e-3 of the largest |eig|."""
    vals, vecs = np.linalg.eigh(w)
    floor = 1e-3 * float(np.max(np.abs(vals)))
    if vals[0] >= floor:
        return w
    return (vecs * np.maximum(vals, floor)) @ vecs.T


@dataclass
class QcqpProblem:
    """Condensed problem over the stacked inputs V = (v_0, ..., v_{N-1})."""

    hessian: np.ndarray
    gradient: np.ndarray
    cost_offset: float
    lin_rows: np.ndarray
    lin_rhs: np.ndarray
    quad_rows: QuadraticRow
    pred_map: np.ndarray
    pred_off: np.ndarray
    z0: np.ndarray
    n_steps: int
    v_lo: np.ndarray
    v_hi: np.ndarray
    infeasible: bool = False

    def cost(self, v: np.ndarray) -> float:
        return float(0.5 * v @ self.hessian @ v + self.gradient @ v
                     + self.cost_offset)

    def predict(self, v: np.ndarray) -> np.ndarray:
        stacked = self.pred_off + self.pred_map @ v
        return np.vstack([self.z0, stacked.reshape(self.n_steps, 4)])

    def evaluate(self, v: np.ndarray):
        """Cost, the barrier rows as -c(v) <= 0, and the values c(v)."""
        c = self.quad_rows.value(v)
        return self.cost(v), -c, c

    def linearize(self, v: np.ndarray, c: np.ndarray, multipliers=None):
        """QP model at v and the Jacobian of -c.

        Without nonzero multipliers of the rows -c <= 0 the model is the
        cost itself. Otherwise its Hessian is that of the Lagrangian,
        H - sum_k lambda_k * hess(c_k), with eigenvalues floored, and its
        linear term keeps the cost gradient at v.
        """
        rows = self.quad_rows
        grad = rows.gradient(v)
        stuck = np.flatnonzero((c < 0.0)
                               & (np.einsum("kn,kn->k", grad, grad) < 1e-18))
        if stuck.size:
            # Iterate sits at the obstacle center; push along the
            # direction from the center toward the initial state.
            d = self.z0[[0, 2]] - rows.center[stuck]
            d[np.einsum("ki,ki->k", d, d) < 1e-18] = (1.0, 0.0)
            grad[stuck] = 2.0 * np.einsum("kin,ki->kn", rows.map_next[stuck], d)
        if multipliers is None or not np.any(multipliers):
            return self.hessian, self.gradient, -grad
        w = _floor_eigenvalues(self.hessian - rows.curvature(multipliers))
        return w, self.hessian @ v + self.gradient - w @ v, -grad


@dataclass
class SolveResult:
    """Solver outcome: status, input plan, prediction, and diagnostics."""

    status: str  # optimal | max_iter | infeasible
    v_sequence: np.ndarray
    z_prediction: np.ndarray
    cost: float
    sqp_iterations: int
    qp_iterations_total: int
    solve_time: float


def prediction_matrices(model: LtiModel, n_steps: int):
    """Stacked maps (F, G) with (z_1, ..., z_N) = F z0 + G V."""
    A, B = model.A, model.B
    powers = [np.eye(4)]
    for _ in range(n_steps):
        powers.append(powers[-1] @ A)
    F = np.vstack([powers[i] for i in range(1, n_steps + 1)])
    G = np.zeros((4 * n_steps, 2 * n_steps))
    for i in range(1, n_steps + 1):
        for j in range(i):
            G[4 * (i - 1):4 * i, 2 * j:2 * j + 2] = powers[i - 1 - j] @ B
    return F, G


class _CondensedWorkspace:
    """Constant matrices of the condensed problem for one configuration.

    Everything that does not depend on the measured state is precomputed
    here: prediction maps, the cost Hessian, the affine description of the
    linear rows, the closed-loop powers behind the terminal rows, and the
    barrier-row position maps.
    """

    def __init__(self, cfg: MpcConfig, model: LtiModel, terminal: TerminalData,
                 obstacles, mode: str):
        n = cfg.horizon
        nc = cfg.constraint_horizon
        nv = 2 * n
        F, G = prediction_matrices(model, n)
        q_blocks = [cfg.Q] * (n - 1) + [terminal.Qbar]
        qt = np.zeros((4 * n, 4 * n))
        for k, blk in enumerate(q_blocks):
            qt[4 * k:4 * k + 4, 4 * k:4 * k + 4] = blk
        rt = np.kron(np.eye(n), cfg.R)
        self.hessian = 2.0 * (G.T @ qt @ G + rt)
        self.hessian = 0.5 * (self.hessian + self.hessian.T)
        self.grad_map = 2.0 * (G.T @ qt @ F)
        self.offset_form = cfg.Q + F.T @ qt @ F
        self.F, self.G = F, G
        self.n_steps = n
        self.v_lo = np.tile(cfg.v_min, n)
        self.v_hi = np.tile(cfg.v_max, n)

        pos_idx = np.array([4 * k + c for k in range(n) for c in (0, 2)])
        G_pos, F_pos = G[pos_idx], F[pos_idx]
        rows = [np.eye(nv), -np.eye(nv), G_pos, -G_pos]
        h_const = [np.tile(cfg.v_max, n), -np.tile(cfg.v_min, n),
                   np.tile(cfg.pos_max, n), -np.tile(cfg.pos_min, n)]
        h_lin = [np.zeros((nv, 4)), np.zeros((nv, 4)), -F_pos, F_pos]

        F_N, G_N = F[4 * (n - 1):4 * n], G[4 * (n - 1):4 * n]
        A_cl = model.A + model.B @ terminal.K
        sel = np.zeros((2, 4))
        sel[0, 0] = 1.0
        sel[1, 2] = 1.0
        power = np.eye(4)
        for _ in range(nc + 1):
            km = terminal.K @ power
            sm = sel @ power
            rows += [km @ G_N, -(km @ G_N), sm @ G_N, -(sm @ G_N)]
            h_const += [cfg.v_max, -cfg.v_min, cfg.pos_max, -cfg.pos_min]
            h_lin += [-(km @ F_N), km @ F_N, -(sm @ F_N), sm @ F_N]
            power = A_cl @ power
        self.lin_rows = np.vstack(rows)
        self.h_const = np.concatenate(h_const)
        self.h_lin = np.vstack(h_lin)

        # Barrier rows, obstacle-major: row i * n + k bounds step k against
        # obstacle i. The k = 0 cbf row reads its previous position from z0.
        self.mode = mode
        n_obs = len(obstacles)
        map_next = np.stack([G[[4 * k, 4 * k + 2]] for k in range(n)])
        f_next = np.stack([F[[4 * k, 4 * k + 2]] for k in range(n)])
        map_prev = np.zeros_like(map_next)
        f_prev = np.zeros_like(f_next)
        if mode == "cbf":
            map_prev[1:] = map_next[:-1]
            f_prev[0] = sel
            f_prev[1:] = f_next[:-1]
        self.quad_map_next = np.tile(map_next, (n_obs, 1, 1))
        self.quad_map_prev = np.tile(map_prev, (n_obs, 1, 1))
        self.quad_gram_next = np.einsum("kin,kim->knm", self.quad_map_next,
                                        self.quad_map_next)
        self.quad_gram_prev = np.einsum("kin,kim->knm", self.quad_map_prev,
                                        self.quad_map_prev)
        self.quad_f_next = np.tile(f_next, (n_obs, 1, 1))
        self.quad_f_prev = np.tile(f_prev, (n_obs, 1, 1))
        self.quad_center = np.repeat(
            np.array([obs.center() for obs in obstacles]).reshape(n_obs, 2),
            n, axis=0)
        self.quad_radius_sq = np.repeat(
            np.array([obs.radius**2 for obs in obstacles], dtype=float), n)


def build_qcqp(z0, cfg: MpcConfig, model: LtiModel, terminal: TerminalData,
               obstacles, mode: str = "cbf", workspace=None) -> QcqpProblem:
    """Assemble the condensed problem for the measured linear state z0.

    z0 and the obstacles are expected in goal-centered coordinates (the
    regulation target at the origin). A z0 outside the position box flags
    the problem infeasible immediately.
    """
    if mode not in ("cbf", "euclid"):
        raise ConfigError(f"unsupported problem mode '{mode}'")
    z0 = np.asarray(z0, dtype=float).ravel()
    if workspace is None:
        workspace = _CondensedWorkspace(cfg, model, terminal, obstacles, mode)
    ws = workspace
    decay = 1.0 - cfg.gamma if ws.mode == "cbf" else 0.0
    quad_rows = QuadraticRow(
        ws.quad_map_next, ws.quad_f_next @ z0, ws.quad_map_prev,
        ws.quad_f_prev @ z0, ws.quad_center, ws.quad_radius_sq,
        np.full(len(ws.quad_radius_sq), decay), ws.quad_gram_next,
        ws.quad_gram_prev)
    pos0 = z0[[0, 2]]
    outside = bool(np.any(pos0 > cfg.pos_max) or np.any(pos0 < cfg.pos_min))
    return QcqpProblem(
        hessian=ws.hessian,
        gradient=ws.grad_map @ z0,
        cost_offset=float(z0 @ ws.offset_form @ z0),
        lin_rows=ws.lin_rows,
        lin_rhs=ws.h_const + ws.h_lin @ z0,
        quad_rows=quad_rows,
        pred_map=ws.G,
        pred_off=ws.F @ z0,
        z0=z0,
        n_steps=ws.n_steps,
        v_lo=ws.v_lo,
        v_hi=ws.v_hi,
        infeasible=outside,
    )


def _merit_penalty(violations: np.ndarray) -> float:
    # Violations within half the feasibility tolerance are treated as zero,
    # otherwise the penalty blocks full steps near the solution where the
    # relinearized rows move by second-order amounts (Maratos effect).
    return float(np.sum(np.clip(violations - 0.5 * FEAS_TOL, 0.0, None)))


def solve_sqp(problem, warm_start=None) -> SolveResult:
    """Solve a problem with affine and nonlinear rows by SQP.

    The problem gives its affine rows lin_rows @ v <= lin_rhs, the input
    box v_lo/v_hi that clips the warm start, evaluate(v) -> (cost, g, aux)
    with the nonlinear rows g(v) <= 0, linearize(v, aux, multipliers) ->
    (H, grad, J) with the quadratic model 0.5 x'Hx + grad'x, whose gradient
    H v + grad at v is the cost gradient, and the Jacobian J of g, and
    predict(v). The multipliers are those of the rows g in the previous QP
    (None on the first iteration), so H may be a Lagrangian Hessian. Each
    iteration solves the dense QP with the rows
    [lin_rows; J] x <= [lin_rhs; J v - g] and backtracks from the full step
    on an l1 merit function evaluated on the original rows (Nocedal &
    Wright, ch. 18). Terminates when the QP step norm drops below OPT_TOL
    with worst violation below FEAS_TOL.
    """
    t0 = time.perf_counter()
    v = np.zeros(2 * problem.n_steps)
    status, max_iter = "max_iter", MAX_SQP_ITER
    if problem.infeasible:
        status, max_iter = "infeasible", 0
    else:
        if warm_start is not None:
            v = np.asarray(warm_start, dtype=float).ravel().copy()
        v = np.clip(v, problem.v_lo, problem.v_hi)

    def evaluate(x):
        """Cost, nonlinear rows, model data and row violations at x."""
        f, g, aux = problem.evaluate(x)
        lin = problem.lin_rows @ x - problem.lin_rhs
        return f, g, aux, np.concatenate([np.clip(lin, 0.0, None),
                                          np.clip(g, 0.0, None)])

    qp_total = 0
    rho = 10.0
    it = 0
    n_lin = len(problem.lin_rows)
    lam = None
    # The line search hands the values at the accepted point to the next
    # iteration, so each accepted point is evaluated once.
    cost, g, aux, viol = evaluate(v)
    for it in range(1, max_iter + 1):
        hessian, gradient, jac = problem.linearize(v, aux, lam)
        qp = solve_qp(hessian, gradient, np.vstack([problem.lin_rows, jac]),
                      np.concatenate([problem.lin_rhs, jac @ v - g]), x0=v,
                      tol=1e-8)
        qp_total += qp.iterations
        if qp.status == "infeasible":
            status = "infeasible"
            break
        if qp.multipliers is not None and qp.multipliers.size:
            rho = max(rho, 10.0 * (1.0 + float(np.max(qp.multipliers))))
            lam = qp.multipliers[n_lin:]
        d = qp.x - v
        step = float(np.max(np.abs(d), initial=0.0))
        worst = float(np.max(viol, initial=0.0))
        if step <= OPT_TOL and worst <= FEAS_TOL:
            status = "optimal"
            break
        pen0 = _merit_penalty(viol)
        merit0 = cost + rho * pen0
        ddir = float((hessian @ v + gradient) @ d) - rho * pen0
        bar = merit0 + 1e-12 * (1.0 + abs(merit0))
        alpha = 1.0
        while alpha >= 1e-6:
            trial = v + alpha * d
            point = evaluate(trial)
            if (point[0] + rho * _merit_penalty(point[3])
                    <= bar + 1e-4 * alpha * min(ddir, 0.0)):
                break
            alpha *= 0.5
        moved = alpha >= 1e-6
        taken = 0.0
        if moved:
            taken = float(np.max(np.abs(trial - v), initial=0.0))
            v = trial
            cost, g, aux, viol = point
        worst = float(np.max(viol, initial=0.0))
        if worst <= FEAS_TOL and taken <= OPT_TOL:
            status = "optimal"
            break
        if not moved:
            break

    return SolveResult(
        status=status,
        v_sequence=v.reshape(problem.n_steps, 2).copy(),
        z_prediction=problem.predict(v),
        cost=cost,
        sqp_iterations=it,
        qp_iterations_total=qp_total,
        solve_time=time.perf_counter() - t0,
    )


class LinearMpc:
    """Receding-horizon controller on the linear coordinates.

    Owns the discrete model, terminal data, the condensed workspace, and
    the shifted warm start. On an infeasible step the barrier decay is
    relaxed once (gamma doubled, capped at 1); a second failure is
    reported as infeasible.
    """

    def __init__(self, cfg: MpcConfig, obstacles=(), goal=(0.0, 0.0),
                 mode: str = "cbf"):
        if mode not in ("cbf", "euclid"):
            raise ConfigError(f"unsupported mode '{mode}' for LinearMpc")
        self.cfg = cfg
        self.mode = mode
        self.model = discretize_double_integrator(cfg.ts)
        self.terminal = terminal_data(self.model, cfg.Q, cfg.R)
        self.goal_z = np.array([goal[0], 0.0, goal[1], 0.0])
        self.obstacles = [Obstacle(o.x - goal[0], o.y - goal[1], o.radius)
                          for o in obstacles]
        self.workspace = _CondensedWorkspace(cfg, self.model, self.terminal,
                                             self.obstacles, mode)
        self._warm = None

    def solve(self, z0) -> SolveResult:
        t0 = time.perf_counter()
        z0s = np.asarray(z0, dtype=float).ravel() - self.goal_z
        problem = build_qcqp(z0s, self.cfg, self.model, self.terminal,
                             self.obstacles, mode=self.mode,
                             workspace=self.workspace)
        res = solve_sqp(problem, warm_start=self._warm)
        if res.status == "infeasible" and self.mode == "cbf" and self.cfg.gamma < 1.0:
            relaxed = replace(self.cfg, gamma=min(2.0 * self.cfg.gamma, 1.0))
            problem = build_qcqp(z0s, relaxed, self.model, self.terminal,
                                 self.obstacles, mode=self.mode,
                                 workspace=self.workspace)
            res = solve_sqp(problem, warm_start=self._warm)
        if res.status != "infeasible":
            flat = res.v_sequence.ravel()
            tail = self.terminal.K @ res.z_prediction[-1]
            self._warm = np.concatenate([flat[2:], tail])
            res.z_prediction = res.z_prediction + self.goal_z
        res.solve_time = time.perf_counter() - t0
        return res


def _unicycle_jacobians(x, u):
    c, s = math.cos(x[2]), math.sin(x[2])
    fx = np.zeros((3, 3))
    fx[0, 2] = -u[0] * s
    fx[1, 2] = u[0] * c
    fu = np.array([[c, 0.0], [s, 0.0], [0.0, 1.0]])
    return fx, fu


def _unicycle_rhs(x, u):
    c, s = math.cos(x[2]), math.sin(x[2])
    return np.array([u[0] * c, u[0] * s, u[1]])


def _rk4_with_jacobians(x, u, ts):
    """RK4 step of the unicycle plus exact step Jacobians A, B."""
    eye = np.eye(3)
    k1 = _unicycle_rhs(x, u)
    j1x, j1u = _unicycle_jacobians(x, u)
    x2 = x + 0.5 * ts * k1
    k2 = _unicycle_rhs(x2, u)
    f2x, f2u = _unicycle_jacobians(x2, u)
    j2x = f2x @ (eye + 0.5 * ts * j1x)
    j2u = f2x @ (0.5 * ts * j1u) + f2u
    x3 = x + 0.5 * ts * k2
    k3 = _unicycle_rhs(x3, u)
    f3x, f3u = _unicycle_jacobians(x3, u)
    j3x = f3x @ (eye + 0.5 * ts * j2x)
    j3u = f3x @ (0.5 * ts * j2u) + f3u
    x4 = x + ts * k3
    k4 = _unicycle_rhs(x4, u)
    f4x, f4u = _unicycle_jacobians(x4, u)
    j4x = f4x @ (eye + ts * j3x)
    j4u = f4x @ (ts * j3u) + f4u
    x_next = x + (ts / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    a = eye + (ts / 6.0) * (j1x + 2.0 * j2x + 2.0 * j3x + j4x)
    b = (ts / 6.0) * (j1u + 2.0 * j2u + 2.0 * j3u + j4u)
    return x_next, a, b


class _RolloutProblem:
    """The baseline's problem over the stacked inputs U = (u_0, ..., u_{N-1}).

    Single shooting: the RK4 rollout from x0 eliminates the states. The
    affine rows are the input box; the nonlinear rows are the position box
    and the barrier decay rows, obstacle-major as in QuadraticRow, on the
    rolled-out positions. linearize() is the Gauss-Newton model of the cost
    and the rows' Jacobian from the rollout sensitivities.
    """

    infeasible = False

    def __init__(self, x0, cfg: MpcConfig, goal, obstacles, gamma: float):
        n = cfg.horizon
        self.x0, self.goal, self.ts = x0, goal, cfg.ts
        self.n_steps = n
        self.v_lo = np.tile(cfg.u_min, n)
        self.v_hi = np.tile(cfg.u_max, n)
        self.lin_rows = np.vstack([np.eye(2 * n), -np.eye(2 * n)])
        self.lin_rhs = np.concatenate([self.v_hi, -self.v_lo])
        self.pos_min, self.pos_max = cfg.pos_min, cfg.pos_max
        # State weights of x_0, ..., x_N and the input weight of the stack.
        self.weights = np.stack([cfg.nmpc_Q] * n + [cfg.nmpc_P])
        self.input_weight = np.kron(np.eye(n), cfg.nmpc_R)
        self.center = np.array([o.center() for o in obstacles],
                               dtype=float).reshape(-1, 2)
        self.radius_sq = np.array([o.radius**2 for o in obstacles], dtype=float)
        self.decay = 1.0 - gamma

    def rollout(self, u):
        """States (N+1, 3) and their sensitivities dx_k/dU (N+1, 3, 2N)."""
        n = self.n_steps
        states = np.empty((n + 1, 3))
        sens = np.zeros((n + 1, 3, 2 * n))
        states[0] = self.x0
        for k in range(n):
            states[k + 1], a, b = _rk4_with_jacobians(
                states[k], u[2 * k:2 * k + 2], self.ts)
            sens[k + 1] = a @ sens[k]
            sens[k + 1, :, 2 * k:2 * k + 2] += b
        return states, sens

    def predict(self, u):
        return self.rollout(u)[0]

    def evaluate(self, u):
        """True cost, position and barrier rows, and the rollout at u."""
        states, sens = self.rollout(u)
        err = states - self.goal
        cost = float(np.einsum("ki,kij,kj->", err, self.weights, err)
                     + u @ self.input_weight @ u)
        pos = states[1:, :2]
        d = states[None, :, :2] - self.center[:, None, :]
        h = np.einsum("oki,oki->ok", d, d) - self.radius_sq[:, None]
        g = np.concatenate([(pos - self.pos_max).ravel(),
                            (self.pos_min - pos).ravel(),
                            (self.decay * h[:, :-1] - h[:, 1:]).ravel()])
        return cost, g, (states, sens, d)

    def linearize(self, u, aux, multipliers=None):
        """Gauss-Newton model of the cost and the rows' Jacobian at u.

        The multipliers are ignored: the model keeps the Gauss-Newton
        Hessian without the rows' curvature.
        """
        states, sens, d = aux
        s, w = sens[1:], self.weights[1:]
        off = states[1:] - s @ u - self.goal
        hess = 2.0 * (self.input_weight + np.einsum("kin,kim->nm", s, w @ s))
        grad = 2.0 * np.einsum("kin,kij,kj->n", s, w, off)
        dh = 2.0 * np.einsum("kin,oki->okn", sens[:, :2], d)
        jac_pos = s[:, :2].reshape(-1, 2 * self.n_steps)
        jac = np.vstack([jac_pos, -jac_pos,
                         (self.decay * dh[:, :-1] - dh[:, 1:]).reshape(
                             -1, 2 * self.n_steps)])
        return 0.5 * (hess + hess.T), grad, jac


class NonlinearMpc:
    """Receding-horizon controller on the RK4-discretized unicycle.

    Single-shooting form: the dynamics equalities are eliminated by the
    rollout and relinearized around the current iterate at every SQP
    iteration. Used as the timing and trajectory baseline. On an
    infeasible step the barrier decay is relaxed once, as in LinearMpc.
    """

    def __init__(self, cfg: MpcConfig, obstacles=(), goal=(0.0, 0.0)):
        self.cfg = cfg
        self.goal = np.array([goal[0], goal[1], 0.0])
        self.obstacles = list(obstacles)
        self._warm = None

    def solve(self, x0) -> SolveResult:
        t0 = time.perf_counter()
        x0 = np.asarray(x0, dtype=float).ravel()[:3]
        gamma = self.cfg.gamma
        res = solve_sqp(_RolloutProblem(x0, self.cfg, self.goal,
                                        self.obstacles, gamma),
                        warm_start=self._warm)
        if res.status == "infeasible" and gamma < 1.0:
            res = solve_sqp(_RolloutProblem(x0, self.cfg, self.goal,
                                            self.obstacles,
                                            min(2.0 * gamma, 1.0)),
                            warm_start=self._warm)
        if res.status != "infeasible":
            u = res.v_sequence.ravel()
            self._warm = np.concatenate([u[2:], u[-2:]])
        res.solve_time = time.perf_counter() - t0
        return res


def estimate_flops_ip(n_steps: int, n_inputs: int, ip_iterations: float) -> float:
    """Worst-case flop count model of an interior-point QCQP solve."""
    if n_steps <= 0 or n_inputs <= 0 or ip_iterations <= 0:
        raise ConfigError("flops estimate arguments must be positive")
    nm = n_steps * n_inputs
    return ip_iterations * ((2.0 / 3.0) * nm**3 + 2.0 * nm**2)


def estimate_flops_sqp(sqp_iterations: float, n_steps: int, n_inputs: int,
                       ip_iterations: float) -> float:
    """SQP flop model: iteration count times the interior-point cost."""
    if sqp_iterations <= 0:
        raise ConfigError("flops estimate arguments must be positive")
    return sqp_iterations * estimate_flops_ip(n_steps, n_inputs, ip_iterations)
