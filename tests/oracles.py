"""Independent reference computations used by the solver checks.

These deliberately avoid the code paths they certify: the grid search
enumerates the input box directly, the instance generator builds
problems through the public constructors only, and the plant step and
the eigenvalue floor are the numpy array forms the float code replaced.
"""

import math

import numpy as np

from scmpc import LinearMpc, MpcConfig, Obstacle, build_qcqp

GRID_POINTS = 21  # pitch of 0.05 of the box range per dimension


def random_small_instance(rng):
    """Random single-obstacle problem with horizon at most 3."""
    n = int(rng.integers(1, 4))
    bound = float(rng.uniform(4.0, 10.0))
    cfg = MpcConfig(horizon=n, constraint_horizon=0,
                    gamma=float(rng.uniform(0.1, 1.0)),
                    v_min=[-bound, -bound], v_max=[bound, bound])
    while True:
        z0 = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5),
                       rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5)])
        obs = Obstacle(float(rng.uniform(-1.2, 1.2)),
                       float(rng.uniform(-1.2, 1.2)),
                       float(rng.uniform(0.2, 0.6)))
        if (z0[0] - obs.x) ** 2 + (z0[2] - obs.y) ** 2 - obs.radius**2 >= 0.05:
            controller = LinearMpc(cfg, [obs])
            return build_qcqp(z0, controller.workspace, 1.0 - cfg.gamma)


def grid_search_best(problem, points=GRID_POINTS):
    """Best feasible objective over a dense grid on the input box.

    Returns +inf when no grid point is feasible. The inner four dimensions
    are vectorized; any remaining leading dimensions are enumerated, lowest
    cost bound first. Only points costing less than the best feasible value
    found so far are checked for feasibility, and outer points whose bound
    cannot beat it are skipped. That changes no result: each point's cost
    and row values are the same elementwise expressions on any subset.
    """
    nv = 2 * problem.n_steps
    lo, hi = problem.v_lo, problem.v_hi
    axes = [np.linspace(lo[i], hi[i], points) for i in range(nv)]
    n_out = max(nv - 4, 0)
    inner = np.stack([g.ravel() for g in
                      np.meshgrid(*axes[n_out:], indexing="ij")], axis=1)
    outer = (np.stack([g.ravel() for g in
                       np.meshgrid(*axes[:n_out], indexing="ij")], axis=1)
             if n_out else np.zeros((1, 0)))
    hess, grad = problem.hessian, problem.gradient
    # The interval bound drops rows that cannot violate anywhere on the box.
    # The test below accepts up to rhs + 1e-9, so rows whose bound stays
    # below that by more than roundoff (the input-box rows, whose bound is
    # exactly rhs) can never fail it.
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    upper = problem.lin_rows @ center + np.abs(problem.lin_rows) @ half
    keep = upper > problem.lin_rhs + 0.5e-9
    rows, rhs = problem.lin_rows[keep], problem.lin_rhs[keep]
    lin_inner = rows[:, n_out:] @ inner.T if rows.size else None
    cost_inner = (0.5 * np.einsum("ij,jk,ik->i", inner,
                                  hess[n_out:, n_out:], inner)
                  + inner @ grad[n_out:])
    cross = hess[:n_out, n_out:] @ inner.T if n_out else None
    # Row o * N + k bounds position k + 1 against obstacle o, decaying
    # from position k: (map_next, off_next, map_prev, off_prev, center,
    # radius_sq) of each row, with the block's one decay.
    qr = problem.quad_rows
    decay = qr.decay
    quads = []
    for i in range(len(qr)):
        o, k = divmod(i, problem.n_steps)
        row = (qr.maps[k + 1], qr.offsets[k + 1], qr.maps[k], qr.offsets[k],
               qr.center[o], qr.radius_sq[o])
        pn = row[0][:, n_out:] @ inner.T
        pp = row[2][:, n_out:] @ inner.T if decay != 0.0 else None
        quads.append((row, pn, pp))
    consts = np.array([0.5 * float(vo @ hess[:n_out, :n_out] @ vo)
                       + float(grad[:n_out] @ vo) for vo in outer])
    # A lower bound of the cost at each outer point: each cross term at its
    # extreme over the inner grid, less a margin far above the roundoff of
    # the terms summed.
    cross_min = (np.minimum(outer * cross.min(axis=1),
                            outer * cross.max(axis=1)).sum(axis=1)
                 if n_out else np.zeros(1))
    cost_min = float(np.min(cost_inner))
    bound = consts + cost_min + cross_min
    bound -= 1e-9 * (1.0 + np.abs(consts) + abs(cost_min) + np.abs(cross_min))
    best = np.inf
    for j in np.argsort(bound, kind="stable"):
        if bound[j] >= best:
            break
        vo = outer[j]
        cost = cost_inner + consts[j] + vo @ cross if n_out else cost_inner
        cand = np.flatnonzero(cost < best)
        if lin_inner is not None:
            lin = (lin_inner[:, cand] + (rows[:, :n_out] @ vo)[:, None]
                   if n_out else lin_inner[:, cand])
            cand = cand[np.all(lin <= rhs[:, None] + 1e-9, axis=0)]
        for row, pn_inner, pp_inner in quads:
            if not cand.size:
                break
            map_next, off_next, map_prev, off_prev, center, radius_sq = row
            off = off_next + (map_next[:, :n_out] @ vo if n_out else 0.0)
            pn = pn_inner[:, cand] + off[:, None]
            val = ((pn[0] - center[0]) ** 2
                   + (pn[1] - center[1]) ** 2 - radius_sq)
            if decay != 0.0:
                off0 = off_prev + (map_prev[:, :n_out] @ vo if n_out else 0.0)
                pp = pp_inner[:, cand] + off0[:, None]
                val = val - decay * ((pp[0] - center[0]) ** 2
                                     + (pp[1] - center[1]) ** 2
                                     - radius_sq)
            cand = cand[val >= -1e-9]
        if cand.size:
            best = min(best, float(np.min(cost[cand])))
    return best + problem.cost_offset


def rk4_step_array(fn, state, u, ts):
    """Classical RK4 step on numpy arrays, the vector form of the plant step."""
    k1 = fn(state, u)
    k2 = fn(state + 0.5 * ts * k1, u)
    k3 = fn(state + 0.5 * ts * k2, u)
    k4 = fn(state + ts * k3, u)
    return state + (ts / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def unicycle_rhs_array(x, u):
    """Unicycle dynamics on a 3-array."""
    u1, u2 = u
    return np.array([u1 * math.cos(x[2]), u1 * math.sin(x[2]), u2])


def closed_loop_rhs_array(x, v, zeta_threshold):
    """Extended dynamics under the linearizing law in the array form: the
    law on the state's entries converted to float, then the extended model
    on the 4-array."""
    x3, zeta = float(x[2]), float(x[3])
    c, sn = math.cos(x3), math.sin(x3)
    accel = v[0] * c + v[1] * sn
    turn = ((-v[0] * sn + v[1] * c) / zeta
            if abs(zeta) > zeta_threshold else 0.0)
    return np.array([x[3] * math.cos(x[2]), x[3] * math.sin(x[2]), turn,
                     accel])


def floor_eigenvalues_eigh(w):
    """w with its eigenvalues raised to at least 1e-3 of the largest |eig|,
    always through the eigendecomposition; w itself if nothing is floored."""
    vals, vecs = np.linalg.eigh(w)
    floor = 1e-3 * float(np.max(np.abs(vals)))
    if vals[0] >= floor:
        return w
    return (vecs * np.maximum(vals, floor)) @ vecs.T
