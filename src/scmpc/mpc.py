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

Both problems state the safety constraint through one function,
_barrier_rows: the discrete-time barrier condition
h(p_{k+1}) >= (1 - gamma) h(p_k) per obstacle and step (Agrawal and
Sreenath, RSS 2017), on the condensed predictions or on the rollout; at
gamma = 1 they are the euclid mode's rows h(p_{k+1}) >= 0. Both
controllers solve through one helper that, after an infeasible solve,
solves once more at doubled gamma and reports the iterations of both
solves.

Before any QCQP is built, the linear scheme certifies the cost's free
(unconstrained) minimizer by one product with a matrix built per decay:
if it meets every row within FEAS_TOL, no feasible plan has a lower cost,
however nonconvex the barrier rows are, so it is the solution. This
settles a typical warm-started step; it counts as one SQP iteration and
no QP.

A solve returns the input plan, not its predicted states: the step
applies the first input, and the next SQP starts from the plan shifted
one stage with K z_N appended, z_N = F_N z0 + G_N V on the model.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, integer, real
from .lti import LtiModel, TerminalData, discretize_double_integrator, terminal_data
from .model import unicycle_rhs
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

# SQP termination: worst row violation at most FEAS_TOL and QP step at most
# OPT_TOL (or a full step that solve_sqp can certify as optimal), within at
# most MAX_SQP_ITER iterations.
OPT_TOL = 1e-6
FEAS_TOL = 1e-6
MAX_SQP_ITER = 50


def _real_array(value, name):
    """value as a float array if each entry passes errors.real, which
    rejects bools, strings and non-finite numbers."""
    arr = np.asarray(value, dtype=object)
    return np.array([real(x, name) for x in arr.flat]).reshape(arr.shape)


def _as_matrix(value, shape, name):
    arr = _real_array(value, name)
    if arr.ndim == 1 and shape[0] == shape[1] and arr.size == shape[0]:
        arr = np.diag(arr)
    if arr.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}")
    return arr


def _as_vector(value, size, name):
    arr = _real_array(value, name).ravel()
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
        object.__setattr__(self, "horizon", integer(self.horizon, "horizon", 1))
        object.__setattr__(self, "constraint_horizon", integer(
            self.constraint_horizon, "constraint_horizon"))
        real(self.gamma, "gamma", above=0.0, maximum=1.0)
        real(self.ts, "ts", above=0.0)
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


def _barrier_rows(d, radius_sq, decay):
    """Barrier decay rows h_o(p_{k+1}) - decay * h_o(p_k).

    d holds the offsets p_k - c_o (n_obs, N+1, 2) of the positions
    p_0, ..., p_N from the obstacle centers, and h_o(p) = |p - c_o|^2 -
    radius_sq_o. The n_obs * N rows are obstacle-major: row o * N + k
    bounds step k + 1 against obstacle o.
    """
    h = (d * d).sum(axis=2) - radius_sq[:, None]
    return (h[:, 1:] - decay * h[:, :-1]).ravel()


def _barrier_jacobian(d, sens, decay):
    """The rows' Jacobian, given the position sensitivities sens."""
    dh = 2.0 * np.einsum("kin,oki->okn", sens, d)
    return (dh[:, 1:] - decay * dh[:, :-1]).reshape(-1, sens.shape[2])


@dataclass
class QuadraticRow:
    """The barrier constraints c(V) >= 0 on the stacked input sequence.

    The rows are _barrier_rows on the predicted positions
    p_k(V) = offsets_k + maps_k @ V, k = 0, ..., N: maps (N+1, 2, nv) with
    maps_0 = 0, since p_0 is the measured position, and offsets (N+1, 2).
    gram (N+1, nv, nv) holds maps_k' maps_k. decay is 1 - gamma; at
    gamma = 1 (euclid) each row bounds h_o(p_{k+1}) >= 0 on its own.
    radius_sq is each obstacle's squared radius plus 2 * FEAS_TOL:
    solve_sqp accepts row violations up to FEAS_TOL, and the back-off
    keeps such a plan's positions outside the true disk. value and
    gradient take d = offsets_at(v) if the caller has it.
    """

    maps: np.ndarray
    offsets: np.ndarray
    center: np.ndarray
    radius_sq: np.ndarray
    decay: float
    gram: np.ndarray

    def __len__(self) -> int:
        return len(self.radius_sq) * (len(self.offsets) - 1)

    def offsets_at(self, v: np.ndarray) -> np.ndarray:
        """The offsets p_k(v) - c_o (n_obs, N+1, 2)."""
        return (self.offsets + self.maps @ v)[None] - self.center[:, None]

    def value(self, v: np.ndarray, d=None) -> np.ndarray:
        """The row values at v."""
        return _barrier_rows(self.offsets_at(v) if d is None else d,
                             self.radius_sq, self.decay)

    def gradient(self, v: np.ndarray, d=None) -> np.ndarray:
        """The (K, nv) Jacobian of the row values at v."""
        return _barrier_jacobian(self.offsets_at(v) if d is None else d,
                                 self.maps, self.decay)

    def curvature(self, weights: np.ndarray) -> np.ndarray:
        """The (nv, nv) weighted sum of the constant row Hessians.

        Row (o, k) has the Hessian 2 (gram_{k+1} - decay gram_k).
        """
        per_step = weights.reshape(-1, len(self.gram) - 1).sum(axis=0)
        coeff = np.zeros(len(self.gram))
        coeff[1:] += per_step
        coeff[:-1] -= self.decay * per_step
        # np.tensordot's own product, without its per-call overhead.
        gram = self.gram.reshape(len(self.gram), -1)
        return 2.0 * np.dot(coeff[None], gram).reshape(self.gram.shape[1:])


def _floor_eigenvalues(w: np.ndarray) -> np.ndarray:
    """w with its eigenvalues raised to at least 1e-3 of the largest |eig|.

    A Cholesky factorization of w - 2e-3 |w|_F I first settles the common
    case: |w|_F bounds every |eig|, so if it succeeds the smallest
    eigenvalue clears the floor by a margin far above roundoff, and w is
    returned without an eigendecomposition. A w with a NaN or inf entry
    skips the test, since numpy's Cholesky passes NaN through silently.
    """
    flat = w.ravel()
    shift = 2e-3 * math.sqrt(flat @ flat)
    if math.isfinite(shift):
        shifted = w.copy()
        shifted.flat[::len(w) + 1] -= shift
        try:
            np.linalg.cholesky(shifted)
            return w
        except np.linalg.LinAlgError:
            pass
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
    z0: np.ndarray
    n_steps: int
    v_lo: np.ndarray
    v_hi: np.ndarray

    def cost(self, v: np.ndarray) -> float:
        return float(0.5 * v @ self.hessian @ v + self.gradient @ v
                     + self.cost_offset)

    def evaluate(self, v: np.ndarray):
        """Cost, the barrier rows as -c(v) <= 0, and (c(v), offsets)."""
        d = self.quad_rows.offsets_at(v)
        c = self.quad_rows.value(v, d)
        return self.cost(v), -c, (c, d)

    def linearize(self, v: np.ndarray, aux, multipliers=None):
        """QP model at v and the Jacobian of -c, from evaluate's aux.

        Without nonzero multipliers of the rows -c <= 0 the model is the
        cost itself. Otherwise its Hessian is that of the Lagrangian,
        H - sum_k lambda_k * hess(c_k), with eigenvalues floored, and its
        linear term keeps the cost gradient at v.
        """
        c, off = aux
        rows = self.quad_rows
        grad = rows.gradient(v, off)
        stuck = np.flatnonzero(c < 0.0)
        if stuck.size:
            stuck = stuck[np.einsum("kn,kn->k", grad[stuck], grad[stuck]) < 1e-18]
        if stuck.size:
            # Iterate sits at the obstacle center; push along the
            # direction from the center toward the initial state.
            # Row o * N + k bounds step k + 1 against obstacle o.
            d = self.z0[[0, 2]] - rows.center[stuck // self.n_steps]
            d[np.einsum("ki,ki->k", d, d) < 1e-18] = (1.0, 0.0)
            grad[stuck] = 2.0 * np.einsum(
                "kin,ki->kn", rows.maps[stuck % self.n_steps + 1], d)
        if multipliers is None or not multipliers.any():
            return self.hessian, self.gradient, -grad
        w = _floor_eigenvalues(self.hessian - rows.curvature(multipliers))
        return w, self.hessian @ v + self.gradient - w @ v, -grad


@dataclass
class SolveResult:
    """Solver outcome: status, input plan, cost, and diagnostics.

    The plan is the whole result: a receding-horizon step applies its first
    input, and the predicted states follow from the model.
    """

    status: str  # optimal | max_iter | infeasible
    v_sequence: np.ndarray
    cost: float
    sqp_iterations: int
    qp_iterations_total: int
    solve_time: float = 0.0  # the controller's whole step, timed by it
    working_set: list | None = None  # the final QP's; None if no QP ran


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
    here: the cost Hessian and the map from z0 to the cost's unconstrained
    minimizer, the affine description of the linear rows (the position box
    less shift, the goal), the closed-loop powers behind the terminal rows,
    the maps (F_N, G_N) with z_N = F_N z0 + G_N V, the barrier-row position
    maps, and the lifted map behind the free-minimizer certificate.
    """

    def __init__(self, cfg: MpcConfig, model: LtiModel, terminal: TerminalData,
                 obstacles, shift):
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
        self.free_map = -np.linalg.solve(self.hessian, self.grad_map)
        self.offset_form = cfg.Q + F.T @ qt @ F
        self.n_steps = n
        self.v_lo = np.tile(cfg.v_min, n)
        self.v_hi = np.tile(cfg.v_max, n)
        pos_min, pos_max = cfg.pos_min - shift, cfg.pos_max - shift
        self.pos_box = (*map(float, pos_min), *map(float, pos_max))

        pos_idx = np.array([4 * k + c for k in range(n) for c in (0, 2)])
        G_pos, F_pos = G[pos_idx], F[pos_idx]
        # The box rows bound p_1, ..., p_{N-1}; the tail's first rows bound p_N.
        rows = [np.eye(nv), -np.eye(nv), G_pos[:-2], -G_pos[:-2]]
        h_const = [np.tile(cfg.v_max, n), -np.tile(cfg.v_min, n),
                   np.tile(pos_max, n - 1), -np.tile(pos_min, n - 1)]
        h_lin = [np.zeros((nv, 4)), np.zeros((nv, 4)), -F_pos[:-2], F_pos[:-2]]

        self.F_N, self.G_N = F_N, G_N = F[4 * (n - 1):], G[4 * (n - 1):]
        A_cl = model.A + model.B @ terminal.K
        sel = np.zeros((2, 4))
        sel[0, 0] = 1.0
        sel[1, 2] = 1.0
        power = np.eye(4)
        for _ in range(nc + 1):
            km = terminal.K @ power
            sm = sel @ power
            rows += [km @ G_N, -(km @ G_N), sm @ G_N, -(sm @ G_N)]
            h_const += [cfg.v_max, -cfg.v_min, pos_max, -pos_min]
            h_lin += [-(km @ F_N), km @ F_N, -(sm @ F_N), sm @ F_N]
            power = A_cl @ power
        self.lin_rows = np.vstack(rows)
        self.h_const = np.concatenate(h_const)
        self.h_lin = np.vstack(h_lin)

        # Barrier positions p_0, ..., p_N: p_0 is the measured position.
        self.pos_maps = np.concatenate([np.zeros((1, 2, nv)),
                                        G_pos.reshape(n, 2, nv)])
        self.pos_f = np.concatenate([sel[None], F_pos.reshape(n, 2, 4)])
        self.pos_gram = np.einsum("kin,kim->knm", self.pos_maps, self.pos_maps)
        self.center = np.array([obs.center() for obs in obstacles],
                               dtype=float).reshape(-1, 2)
        self.radius_sq = np.array([obs.radius**2 + 2.0 * FEAS_TOL
                                   for obs in obstacles], dtype=float)

        # free_stack @ (z0, vec(z0 z0'), 1) is the free plan, value @ z0
        # (the cost is z0' value z0), the affine residuals, h_o(p_k) for
        # k = 1..N, then k = 0..N-1. On the free plan p_k = P_k z0:
        # h_o(p_k) = z0'P_k'P_k z0 - 2 c_o'P_k z0 + |c_o|^2 - r_o^2.
        value = self.offset_form + 0.5 * self.grad_map.T @ self.free_map
        top = np.vstack([self.free_map, 0.5 * (value + value.T),
                         self.lin_rows @ self.free_map - self.h_lin])
        n_obs, n_top = len(self.center), len(top)
        stack = np.zeros((n_top + 2 * n_obs * n, 21))
        stack[:n_top, :4] = top
        stack[n_top - len(self.h_const):n_top, 20] = -self.h_const
        p_k = (self.pos_f + self.pos_maps @ self.free_map)[
            np.array([np.arange(1, n + 1), np.arange(n)])]
        h = stack[n_top:].reshape(2, n_obs, n, 21)
        h[..., :4] = -2.0 * np.einsum("oi,jkix->jokx", self.center, p_k)
        h[..., 4:20] = np.einsum("jkix,jkiy->jkxy", p_k, p_k).reshape(2, 1, n, 16)
        h[..., 20] = ((self.center**2).sum(axis=1) - self.radius_sq)[:, None]
        self.free_stack = stack
        # Where each block after the plan starts.
        self.free_starts = [nv, nv + 4, n_top, n_top + n_obs * n]
        self._lift = np.zeros(23)  # certify's
        self._lift[20] = 1.0
        self._outer = self._lift[4:20].reshape(4, 4)
        self._certificates = {}

    def inside(self, z0: np.ndarray) -> bool:
        """Whether the measured position lies in the position box (a NaN
        position does not)."""
        x_lo, y_lo, x_hi, y_hi = self.pos_box
        return bool(x_lo <= z0[0] <= x_hi and y_lo <= z0[2] <= y_hi)

    def certify(self, z0: np.ndarray, decay: float):
        """The cost's free minimizer at z0 as the solution, if it is one.

        A matrix per decay, kept from its first use, times the lift
        (z0, vec(z0 z0'), 1, m, m^2), m = max |z0_i|, is the plan, the
        cost row, the affine residuals and the barrier residuals
        -(h_o(p_{k+1}) - decay h_o(p_k)) plus a bound on their rounding,
        which grows with the coordinates: 64 eps (C + L m + Q m^2), where
        C, L and Q sum |h_next| + decay |h_now| over the constant, linear
        and quadratic columns. If no residual exceeds FEAS_TOL, no feasible
        plan has a lower cost, however nonconvex the barrier rows are: an
        "optimal" SolveResult of one SQP iteration and no QP is returned,
        else None. z0 is not tested against the position box.
        """
        i_c, i_a, i_h, i_m = self.free_starts
        stack = self._certificates.get(decay)
        if stack is None:
            h_next, h_now = self.free_stack[i_h:i_m], self.free_stack[i_m:]
            eps64 = 64 * np.finfo(float).eps
            size = eps64 * (abs(h_next) + decay * abs(h_now))
            stack = self._certificates[decay] = np.zeros((i_m, 23))
            stack[:, :21] = self.free_stack[:i_m]
            stack[i_h:, :21] = decay * h_now - h_next
            stack[i_h:, 20] += size[:, 20]
            stack[i_h:, 21] = size[:, :4].sum(axis=1)
            stack[i_h:, 22] = size[:, 4:20].sum(axis=1)
        lift = self._lift
        lift[:4] = z0
        np.multiply(z0[:, None], z0, out=self._outer)
        lift[21] = m = max(map(abs, z0.tolist()))
        lift[22] = m * m
        out = stack.dot(lift)  # @ without its overhead
        if not out[i_a:].max() <= FEAS_TOL:
            return None
        return SolveResult("optimal", out[:i_c].reshape(-1, 2),
                           float(z0.dot(out[i_c:i_a])), 1, 0)


def build_qcqp(z0, workspace, decay: float) -> QcqpProblem:
    """The condensed problem at the goal-centered state z0 on a LinearMpc
    workspace, with barrier decay 1 - gamma."""
    z0 = np.asarray(z0, dtype=float).ravel()
    ws = workspace
    quad_rows = QuadraticRow(ws.pos_maps, ws.pos_f @ z0, ws.center,
                             ws.radius_sq, decay, ws.pos_gram)
    return QcqpProblem(
        hessian=ws.hessian,
        gradient=ws.grad_map @ z0,
        cost_offset=float(z0 @ ws.offset_form @ z0),
        lin_rows=ws.lin_rows,
        lin_rhs=ws.h_const + ws.h_lin @ z0,
        quad_rows=quad_rows,
        z0=z0,
        n_steps=ws.n_steps,
        v_lo=ws.v_lo,
        v_hi=ws.v_hi,
    )


def _merit_penalty(violations: np.ndarray) -> float:
    # Violations within half the feasibility tolerance are treated as zero,
    # otherwise the penalty blocks full steps near the solution where the
    # relinearized rows move by second-order amounts (Maratos effect).
    return float(np.maximum(violations - 0.5 * FEAS_TOL, 0.0).sum())


def solve_sqp(problem, warm_start=None, working_set=None) -> SolveResult:
    """Solve a problem with affine and nonlinear rows by SQP.

    The driver reads seven names of the problem: its affine rows
    lin_rows @ v <= lin_rhs, the input box v_lo/v_hi that sizes v and
    clips the warm start (zero by default), evaluate(v) -> (cost, g, aux)
    with the nonlinear rows g(v) <= 0, linearize(v, aux, multipliers) ->
    (H, grad, J) with the quadratic model 0.5 x'Hx + grad'x, whose gradient
    H v + grad at v is the cost gradient, and the Jacobian J of g. The
    multipliers are those of the rows g in the previous QP
    (None on the first iteration), so H may be a Lagrangian Hessian. The
    problem's hessian attribute is its cost Hessian when the cost is
    convex quadratic (None otherwise); a model whose H is that very object
    is the exact cost. Each iteration solves the dense QP with the rows
    [lin_rows; J] x <= [lin_rhs; J v - g] and backtracks from the full step
    on an l1 merit function evaluated on the original rows (Nocedal &
    Wright, ch. 18). The first QP starts from working_set, such as the
    final working set of the previous solve of a problem with the same
    row layout, or else from the rows that the iterate meets or violates;
    each later QP starts from the previous QP's working set. A right start
    set costs one KKT solve; a wrong one only moves where the QP's dual
    loop starts. The result carries the final QP's working set.
    Each iterate is evaluated once: its cost, rows, merit penalty and worst
    violation come from the evaluation that produced it, and only the block
    of J is rewritten in the QP's rows from one iteration to the next.

    Returns "optimal" once the worst violation is at most FEAS_TOL and
    either the QP step (or the step the line search took) is at most
    OPT_TOL, or the full step was taken to an optimal QP of the exact
    cost in which no nonlinear row has a nonzero multiplier. The latter
    point minimizes the convex cost over the affine rows alone, so a
    further iteration would only confirm it. It also returns "optimal"
    at v, with no line search, when the cost is convex quadratic, v's
    merit penalty is zero (every violation is within FEAS_TOL / 2) and
    the cost gradient at v does not fall along the QP step d: then every
    trial's merit is at least v's (Nocedal & Wright, sec. 18.3). There
    is no shortcut before the first QP: the linear scheme certifies the
    cost's free minimizer before it builds a problem for this driver
    (_CondensedWorkspace.certify). "infeasible" means that a QP proved its
    rows inconsistent.
    """
    v = np.zeros(len(problem.v_lo))
    if warm_start is not None:
        v = np.asarray(warm_start, dtype=float).ravel().copy()
    v = np.clip(v, problem.v_lo, problem.v_hi)
    status = "max_iter"

    def evaluate(x):
        """Cost, nonlinear rows, model data, merit penalty and worst row
        violation at x."""
        f, g, aux = problem.evaluate(x)
        viol = np.concatenate([problem.lin_rows @ x - problem.lin_rhs, g])
        return f, g, aux, _merit_penalty(viol), float(viol.max(initial=0.0))

    qp_total = 0
    rho = 10.0
    it = 0
    n_lin = len(problem.lin_rows)
    lam = None
    guess = working_set
    cost, g, aux, pen, worst = evaluate(v)
    rows = np.empty((n_lin + len(g), len(v)))
    rhs = np.empty(len(rows))
    rows[:n_lin], rhs[:n_lin] = problem.lin_rows, problem.lin_rhs
    for it in range(1, MAX_SQP_ITER + 1):
        hessian, gradient, jac = problem.linearize(v, aux, lam)
        rows[n_lin:] = jac
        np.subtract(jac @ v, g, out=rhs[n_lin:])
        qp = solve_qp(hessian, gradient, rows, rhs, x0=v, tol=1e-8,
                      working_set=guess)
        qp_total += qp.iterations
        guess = qp.active_set
        if qp.status == "infeasible":
            status = "infeasible"
            break
        rho = max(rho, 10.0 * (1.0 + float(qp.multipliers.max())))
        lam = qp.multipliers[n_lin:]
        d = qp.x - v
        step = float(np.abs(d).max(initial=0.0))
        if step <= OPT_TOL and worst <= FEAS_TOL:
            status = "optimal"
            break
        slope = float((hessian @ v + gradient) @ d)
        if slope >= 0.0 and pen == 0.0 and problem.hessian is not None:
            status = "optimal"
            break
        merit0 = cost + rho * pen
        ddir = slope - rho * pen
        bar = merit0 + 1e-12 * (1.0 + abs(merit0))
        alpha = 1.0
        while alpha >= 1e-6:
            trial = v + alpha * d
            point = evaluate(trial)
            if point[0] + rho * point[3] <= bar + 1e-4 * alpha * min(ddir, 0.0):
                break
            alpha *= 0.5
        moved = alpha >= 1e-6
        taken = 0.0
        if moved:
            taken = float(np.abs(trial - v).max(initial=0.0))
            v = trial
            cost, g, aux, pen, worst = point
        # A full step to the exact cost's QP minimizer with no nonlinear row
        # active is already the solution if it meets the rows.
        solved = (alpha == 1.0 and qp.status == "optimal"
                  and hessian is problem.hessian
                  and not qp.multipliers[n_lin:].any())
        if worst <= FEAS_TOL and (taken <= OPT_TOL or solved):
            status = "optimal"
            break
        if not moved:
            break

    return SolveResult(status, v.reshape(-1, 2).copy(), cost, it, qp_total,
                       working_set=guess)


def _solve_relaxing_gamma(solve, gamma: float) -> SolveResult:
    """solve(gamma), and after an infeasible result with gamma < 1 once
    more at min(2 gamma, 1). The retry's status, plan and cost are
    returned, with the SQP iterations and QP KKT solves of both solves.
    """
    res = solve(gamma)
    if res.status != "infeasible" or gamma >= 1.0:
        return res
    retry = solve(min(2.0 * gamma, 1.0))
    retry.sqp_iterations += res.sqp_iterations
    retry.qp_iterations_total += res.qp_iterations_total
    return retry


class LinearMpc:
    """Receding-horizon controller on the linear coordinates.

    Owns the discrete model, terminal data, the condensed workspace, and
    the last plan with the goal-centered state it was solved from, from
    which only an SQP builds the shifted warm start. Beside them it keeps
    the last SQP's final working set, unshifted, as the next SQP's start
    set (Ferreau, Bock & Diehl, 2008); a certified, infeasible or
    out-of-box step drops it. A measured position outside the position
    box (or NaN) is infeasible at any gamma, so the step solves nothing.
    Otherwise each solve at one gamma first certifies the cost's free
    minimizer and builds the QCQP only when that fails. On an infeasible
    step the barrier decay is relaxed once (gamma doubled, capped at 1);
    a second failure is reported as infeasible. The constructor fixes
    gamma: cfg's, or 1 in euclid mode, which no relaxation changes; no
    code below it reads the mode.
    """

    def __init__(self, cfg: MpcConfig, obstacles=(), goal=(0.0, 0.0),
                 mode: str = "cbf"):
        if mode not in ("cbf", "euclid"):
            raise ConfigError(f"unsupported mode '{mode}' for LinearMpc")
        self.cfg = cfg
        self.gamma = cfg.gamma if mode == "cbf" else 1.0
        self.model = discretize_double_integrator(cfg.ts)
        self.terminal = terminal_data(self.model, cfg.Q, cfg.R)
        self.goal_z = np.array([goal[0], 0.0, goal[1], 0.0])
        # Goal-centered: the obstacles and position box move with the state.
        self.obstacles = [Obstacle(o.x - goal[0], o.y - goal[1], o.radius)
                          for o in obstacles]
        self.workspace = _CondensedWorkspace(cfg, self.model, self.terminal,
                                             self.obstacles, self.goal_z[::2])
        self._last = None

    def solve(self, z0) -> SolveResult:
        t0 = time.perf_counter()
        z0s = z0 - self.goal_z
        ws = self.workspace
        if ws.inside(z0s):
            res = _solve_relaxing_gamma(lambda g: self._solve_once(z0s, g),
                                        self.gamma)
        else:  # the zero plan and its cost
            res = SolveResult("infeasible", np.zeros((ws.n_steps, 2)),
                              float(z0s @ ws.offset_form @ z0s), 0, 0)
        if res.status != "infeasible":
            self._last = res.v_sequence, z0s, res.working_set
        elif self._last is not None:
            self._last = *self._last[:2], None
        res.solve_time = time.perf_counter() - t0
        return res

    def _warm_start(self):
        """The last plan shifted one stage and K z_N, with its terminal state
        z_N = F_N z0 + G_N V, or None."""
        if self._last is None:
            return None
        plan, z0, _ = self._last
        plan = plan.ravel()
        ws = self.workspace
        z_n = ws.F_N @ z0 + ws.G_N @ plan
        return np.concatenate([plan[2:], self.terminal.K @ z_n])

    def _solve_once(self, z0: np.ndarray, gamma: float) -> SolveResult:
        """One solve at gamma from the goal-centered state z0: the
        certificate, else SQP on the QCQP from the warm start and the
        kept working set."""
        decay = 1.0 - gamma
        res = self.workspace.certify(z0, decay)
        if res is None:
            res = solve_sqp(build_qcqp(z0, self.workspace, decay),
                            warm_start=self._warm_start(),
                            working_set=self._last and self._last[2])
        return res


def _unicycle_jacobians(x, u):
    c, s = math.cos(x[2]), math.sin(x[2])
    fx = np.zeros((3, 3))
    fx[0, 2] = -u[0] * s
    fx[1, 2] = u[0] * c
    fu = np.array([[c, 0.0], [s, 0.0], [0.0, 1.0]])
    return fx, fu


def _rk4_with_jacobians(x, u, ts):
    """RK4 step of the unicycle plus exact step Jacobians A, B."""
    eye = np.eye(3)
    k1 = np.array(unicycle_rhs(x, u))
    j1x, j1u = _unicycle_jacobians(x, u)
    x2 = x + 0.5 * ts * k1
    k2 = np.array(unicycle_rhs(x2, u))
    f2x, f2u = _unicycle_jacobians(x2, u)
    j2x = f2x @ (eye + 0.5 * ts * j1x)
    j2u = f2x @ (0.5 * ts * j1u) + f2u
    x3 = x + 0.5 * ts * k2
    k3 = np.array(unicycle_rhs(x3, u))
    f3x, f3u = _unicycle_jacobians(x3, u)
    j3x = f3x @ (eye + 0.5 * ts * j2x)
    j3u = f3x @ (0.5 * ts * j2u) + f3u
    x4 = x + ts * k3
    k4 = np.array(unicycle_rhs(x4, u))
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
    and the barrier decay rows of _barrier_rows, as -c <= 0, on the
    rolled-out positions. linearize() is the Gauss-Newton model of the cost
    and the rows' Jacobian from the rollout sensitivities.
    """

    hessian = None  # the cost is not quadratic: no QP model is exact

    def __init__(self, x0, cfg: MpcConfig, gamma: float, goal, obstacles):
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

    def evaluate(self, u):
        """True cost, position and barrier rows, and the rollout and
        offsets at u."""
        states, sens = self.rollout(u)
        err = states - self.goal
        cost = float(np.einsum("ki,kij,kj->", err, self.weights, err)
                     + u @ self.input_weight @ u)
        pos = states[1:, :2]
        d = states[None, :, :2] - self.center[:, None]
        rows = _barrier_rows(d, self.radius_sq, self.decay)
        g = np.concatenate([(pos - self.pos_max).ravel(),
                            (self.pos_min - pos).ravel(), -rows])
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
        dh = _barrier_jacobian(d, sens[:, :2], self.decay)
        jac_pos = s[:, :2].reshape(-1, 2 * self.n_steps)
        jac = np.vstack([jac_pos, -jac_pos, -dh])
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
        res = _solve_relaxing_gamma(
            lambda g: solve_sqp(_RolloutProblem(x0, self.cfg, g, self.goal,
                                                self.obstacles),
                                warm_start=self._warm),
            self.cfg.gamma)
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
