"""Dense primal active-set solver for strictly convex quadratic programs.

Solves  min 0.5 x'Hx + g'x  subject to  G x <= h  with a positive-definite
Hessian. Infeasible starts are handled by a regularized slack minimization
(Phase 1) whose regularization is continued toward zero, which separates
"feasible but far from the start" from genuinely inconsistent rows. The
working-set loop follows the textbook primal scheme (Nocedal & Wright,
Alg. 16.3): solve the equality constrained subproblem on the current
working set, take the blocking-ratio step, and drop the most negative
multiplier when stationary. A step that no row blocks ends on the
subproblem's minimizer, so its multipliers decide optimality or the drop
at once, without a second solve that would only return a zero step.

A caller that knows the working set of a nearby QP, such as the previous
SQP iteration's, can pass it as a guess. The guess costs one KKT solve
and is accepted only where that solve is a verified KKT point; otherwise
the cold solve runs unchanged (guess and verify; Nocedal & Wright,
ch. 16, and the online active set of Ferreau, Bock & Diehl, 2008).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = ["QpResult", "solve_qp"]


@dataclass
class QpResult:
    x: np.ndarray
    status: str  # optimal | infeasible | max_iter
    iterations: int
    active_set: list = field(default_factory=list)
    multipliers: np.ndarray | None = None
    max_violation: float = 0.0


def _kkt_matrix(H, A):
    """[[H, A'], [A, 0]] for the rows A held as equalities."""
    n, k = H.shape[0], A.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    return kkt


def _kkt_step(H, g, G, x, work):
    """Direction to the minimizer on the working-set manifold, plus duals."""
    n = H.shape[0]
    grad = H @ x + g
    if not work:
        try:
            return np.linalg.solve(H, -grad), np.empty(0)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(H, -grad, rcond=None)[0], np.empty(0)
    kkt = _kkt_matrix(H, G[work])
    rhs = np.concatenate([-grad, np.zeros(len(work))])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _ratio_test(gp, slack, h, work):
    """Step length along p and the row that blocks it (-1 if none).

    gp = G p and slack = h - G x. Rows outside the working set that p
    moves toward compete; a row replaces the current blocker only when its
    ratio beats the current step by more than 1e-14, scanning in index
    order. Since the step starts at 1, ratios at or above 1 - 1e-14 can
    never block, so only the few rows below it are scanned.
    """
    moving = gp > 1e-12 * (1.0 + np.abs(h))
    moving[work] = False
    idx = np.flatnonzero(moving)
    ratios = np.maximum(slack[idx], 0.0) / gp[idx]
    short = ratios < 1.0 - 1e-14
    alpha = 1.0
    blocker = -1
    for i, ratio in zip(idx[short].tolist(), ratios[short].tolist()):
        if ratio < alpha - 1e-14:
            alpha = ratio
            blocker = i
    return alpha, blocker


def _active_set_core(H, g, G, h, x, max_iter):
    """Primal active-set iteration from a feasible point x.

    Each iteration is one KKT solve, and the returned count is the number
    of solves. A step that no row blocks lands on the minimizer over the
    working set, where the multipliers of that same solve hold, so the
    optimality test and the drop are made there without solving again.
    """
    m = G.shape[0]
    work: list[int] = []
    it = 0
    while it < max_iter:
        it += 1
        p, mu = _kkt_step(H, g, G, x, work)
        step_scale = 1e-11 * (1.0 + float(np.max(np.abs(x))))
        if float(np.max(np.abs(p), initial=0.0)) > step_scale:
            alpha, blocker = _ratio_test(G @ p, h - G @ x, h, work)
            x = x + alpha * p
            if blocker >= 0:
                work.append(blocker)
                continue
        if mu.size == 0 or float(np.min(mu)) >= -1e-10:
            lam = np.zeros(m)
            if work:
                lam[work] = np.maximum(mu, 0.0)
            return x, work, lam, it, "optimal"
        work.pop(int(np.argmin(mu)))
    # The last iteration may have changed the working set after its KKT
    # solve, so the multipliers are recomputed for the set returned.
    lam = np.zeros(m)
    if work:
        lam[work] = np.maximum(_kkt_step(H, g, G, x, work)[1], 0.0)
    return x, work, lam, it, "max_iter"


def _verified_guess(H, g, G, h, work, tol):
    """The minimizer on the guessed working set if it is the QP's solution.

    One KKT solve gives x and the multipliers mu of the rows held as
    equalities. The guess hits only if every row holds within tol, no
    multiplier is below -1e-10 and the stationarity residual is at the
    1e-8 level: those are the KKT conditions, which prove x optimal for a
    convex QP. A hit returns x, the full multiplier vector and the worst
    row residual. A guess with a repeated row or a singular KKT system is
    a miss (None), like any guess that fails a check.
    """
    if len(set(work)) < len(work):
        return None
    n = H.shape[0]
    A = G[work]
    try:
        sol = np.linalg.solve(_kkt_matrix(H, A),
                              np.concatenate([-g, h[work]]))
    except np.linalg.LinAlgError:
        return None
    x, mu = sol[:n], sol[n:]
    if mu.size and float(np.min(mu)) < -1e-10:
        return None
    worst = float(np.max(G @ x - h))
    if worst > tol:
        return None
    resid = H @ x + g + A.T @ mu
    if float(np.max(np.abs(resid))) > 1e-8 * (1.0 + float(np.max(np.abs(g)))):
        return None
    lam = np.zeros(G.shape[0])
    lam[work] = np.maximum(mu, 0.0)
    return x, lam, max(worst, 0.0)


def _repair(G, h, x, tol):
    """Project away tiny residual violations left by Phase 1."""
    for _ in range(4):
        resid = G @ x - h
        bad = np.flatnonzero(resid > 0.0)
        if bad.size == 0:
            return x, 0.0
        A = G[bad]
        r = resid[bad]
        gram = A @ A.T + 1e-13 * np.eye(bad.size)
        x = x - A.T @ np.linalg.solve(gram, r)
    worst = float(np.max(G @ x - h, initial=0.0))
    return x, worst


def _phase1(G, h, x0, tol, max_iter):
    """Find a feasible point or report the minimal achievable violation.

    Minimizes 0.5 s^2 + 0.5 eps ||x - x0||^2 over G x - h <= s, continuing
    eps toward zero so the pull toward x0 cannot mask feasibility. The
    last value tells whether a slack minimization stopped at max_iter, in
    which case a remaining violation proves nothing about feasibility.
    """
    m, n = G.shape
    x = np.array(x0, dtype=float)
    worst = float(np.max(G @ x - h, initial=0.0))
    iterations = 0
    capped = False
    for eps in (1e-6, 1e-8, 1e-10, 1e-12):
        if worst <= tol:
            break
        H_ext = np.diag(np.concatenate([np.full(n, eps), [1.0]]))
        g_ext = np.concatenate([-eps * x, [0.0]])
        G_ext = np.hstack([G, -np.ones((m, 1))])
        y = np.concatenate([x, [worst + 1.0]])
        y, _, _, it, status = _active_set_core(H_ext, g_ext, G_ext, h, y,
                                               max_iter)
        iterations += it
        x = y[:n]
        new_worst = float(np.max(G @ x - h, initial=0.0))
        capped = status == "max_iter"
        if new_worst >= worst * 0.999 and new_worst > tol:
            worst = new_worst
            break
        worst = new_worst
    if worst > tol:
        x, worst = _repair(G, h, x, tol)
    return x, worst, iterations, capped


def solve_qp(hessian, gradient, rows=None, rhs=None, x0=None,
             tol: float = 1e-8, max_iter: int | None = None, *,
             working_set=None) -> QpResult:
    """Minimize 0.5 x'Hx + g'x subject to rows @ x <= rhs.

    Parameters
    ----------
    hessian, gradient : ndarray
        Positive-definite H (n x n) and linear term g (n,).
    rows, rhs : ndarray, optional
        Inequality rows G (m x n) and right-hand side h (m,). Omit both
        for an unconstrained solve.
    x0 : ndarray, optional
        Starting guess; it is made feasible before the main iteration.
    tol : float
        Feasibility tolerance used by Phase 1 and for the final residuals.
    working_set : sequence of int, optional
        Guessed indices of the rows active at the solution. The minimizer
        with these rows held as equalities is returned after one KKT solve
        if it meets the KKT conditions; otherwise the guess counts one
        iteration and the solve starts from x0 as without a guess.

    Returns the minimizer with the final working set, the full multiplier
    vector (zeros on inactive rows), and the iteration count, which counts
    KKT solves. KKT residuals at an "optimal" exit are at the 1e-8 level
    for well-scaled data.
    """
    H = np.asarray(hessian, dtype=float)
    g = np.asarray(gradient, dtype=float)
    n = H.shape[0]
    if rows is None or len(rows) == 0:
        x = np.linalg.solve(H, -g)
        return QpResult(x=x, status="optimal", iterations=1,
                        active_set=[], multipliers=np.empty(0))
    G = np.asarray(rows, dtype=float)
    h = np.asarray(rhs, dtype=float)
    m = G.shape[0]
    if max_iter is None:
        max_iter = max(200, 10 * (n + m))

    iterations = 0
    if working_set is not None:
        work = list(working_set)
        hit = _verified_guess(H, g, G, h, work, tol)
        if hit is not None:
            x, lam, worst = hit
            return QpResult(x=x, status="optimal", iterations=1,
                            active_set=sorted(work), multipliers=lam,
                            max_violation=worst)
        iterations = 1
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    worst = float(np.max(G @ x - h, initial=0.0))
    if worst > tol:
        x, worst, it1, capped = _phase1(G, h, x, tol, max_iter)
        iterations += it1
        if worst > tol:
            return QpResult(x=x, status="max_iter" if capped else "infeasible",
                            iterations=iterations,
                            active_set=[], multipliers=np.zeros(m),
                            max_violation=worst)
    x, work, lam, it2, status = _active_set_core(H, g, G, h, x, max_iter)
    iterations += it2
    return QpResult(x=x, status=status, iterations=iterations,
                    active_set=sorted(work), multipliers=lam,
                    max_violation=float(np.max(G @ x - h, initial=0.0)))
