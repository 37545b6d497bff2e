"""Dense dual active-set solver for strictly convex quadratic programs.

Solves  min 0.5 x'Hx + g'x  subject to  G x <= h  with a positive-definite
Hessian by the dual method of Goldfarb & Idnani (Math. Programming 27,
1983). Every iterate minimizes the cost over its working rows, held as
equalities, and has nonnegative multipliers, so the method needs no
feasible start and has no Phase 1. Each iteration picks the most violated
row and makes one KKT solve on the working rows, which gives the
minimizer over them together with the primal direction and the dual
direction of the working multipliers as the violated row's multiplier
grows. It then takes the full step, which meets the row and adds it, or
the partial step to the first working multiplier that reaches zero, which
drops that row. A violated row with no primal direction and no working
multiplier that decreases proves the rows inconsistent.

The working set may start from a guess, such as the previous SQP
iteration's or the previous MPC solve's final set (the hot start of the
online active set method of Ferreau, Bock & Diehl, 2008), or from the rows
that a start point x0 meets or violates. Negative start multipliers are
dropped one KKT solve at a time; a start set with more rows than unknowns,
or with dependent rows, gives way to the empty set.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["QpResult", "solve_qp"]


@dataclass
class QpResult:
    """solve_qp's outcome, with one multiplier per row."""

    x: np.ndarray
    status: str  # optimal | infeasible | max_iter
    iterations: int
    active_set: list
    multipliers: np.ndarray


def _kkt_solve(H, A, rhs, residual=False):
    """Solve [[H, A'], [A, 0]] [x; mu] = rhs for x and mu.

    With residual, the third value is the largest residual relative to
    1 + max|rhs|, large for dependent rows A whose equations the right-hand
    side makes inconsistent (else it is 0). A singular system returns None.
    """
    n, k = H.shape[0], A.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    resid = (np.abs(kkt @ sol - rhs).max() / (1.0 + np.abs(rhs).max())
             if residual else 0.0)
    return sol[:n], sol[n:], float(resid)


def solve_qp(hessian, gradient, rows, rhs, x0=None,
             tol: float = 1e-8, max_iter: int | None = None, *,
             working_set=None) -> QpResult:
    """Minimize 0.5 x'Hx + g'x subject to rows @ x <= rhs.

    Runs the dual active-set loop of the module docstring from a start
    working set; there is no Phase 1.

    Parameters
    ----------
    hessian, gradient : ndarray
        Positive-definite H (n x n) and linear term g (n,).
    rows, rhs : ndarray
        Inequality rows G (m x n), m >= 1, and right-hand side h (m,).
    x0 : ndarray, optional
        Start point, used only to choose the start working set: the rows
        it meets or violates within tol. It need not be feasible; the
        iterates start from the minimizer over the start set.
    tol : float
        Violation up to which a row counts as met, at the start and in
        the optimality test.
    working_set : sequence of int, optional
        Guessed indices of the rows active at the solution; it replaces
        the start set taken from x0. A correct guess is confirmed by one
        KKT solve.

    Returns the minimizer with the final working set, the full multiplier
    vector (zeros on inactive rows), and the iteration count, which counts
    KKT solves. The working rows hold as equalities to roundoff, and an
    optimal exit meets every row within tol. Where an ill-conditioned
    solve leaves a working row violated by more, one refinement KKT solve
    on the final working set follows; if a row is still violated, or a
    multiplier turns negative, the exit is max_iter. A max_iter exit
    returns the current iterate with the multipliers of its working set,
    which for max_iter = 0 is the start point (x0, or zero) with no
    working set; an infeasible exit returns no working set.
    """
    H = np.asarray(hessian, dtype=float)
    g = np.asarray(gradient, dtype=float)
    n = H.shape[0]
    G = np.asarray(rows, dtype=float)
    h = np.asarray(rhs, dtype=float)
    m = G.shape[0]
    if max_iter is None:
        max_iter = max(200, 10 * (n + m))
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    neg_g = -g
    if working_set is not None:
        work = list(working_set)
    else:
        work = [] if x0 is None else np.flatnonzero(G @ x - h >= -tol).tolist()
    if len(work) > n or max_iter < 1:
        work = []  # with no KKT solve there are no working multipliers
    status, it, lam = "max_iter", 0, np.zeros(0)
    p, t = -1, 0.0  # the violated row being added and its multiplier
    for it in range(1, max_iter + 1):
        A = G[work]
        # Two right-hand sides: the minimizer over the working rows, and
        # the directions as row p's multiplier grows.
        rhs_kkt = np.zeros((n + len(work), 2))
        rhs_kkt[:n, 0] = neg_g
        rhs_kkt[n:, 0] = h[work]
        if p >= 0:
            n_p = G[p]
            np.negative(n_p, out=rhs_kkt[:n, 1])
        else:
            # Until a row is added the second column probes the start set:
            # these distinct right-hand sides are consistent for
            # independent rows only, so dependent rows leave a residual.
            rhs_kkt[n:, 1] = np.sqrt(np.arange(2.0, len(work) + 2.0))
        sol = _kkt_solve(H, A, rhs_kkt, residual=p < 0)
        if sol is None or (p < 0 and not sol[2] <= 1e-9):
            # A failed first solve rejects the start set; a later one can
            # only be a singular system, which ends the loop.
            if it > 1:
                break
            work, lam = [], np.zeros(0)
            continue
        (x_w, dx), (mu_w, dmu) = sol[0].T, sol[1].T
        drop = -1  # position in work of the row to drop
        if p < 0:
            x, lam = x_w, mu_w
            if lam.size and lam.min() < -1e-10:
                drop = int(lam.argmin())
        else:
            # Raising the multiplier of row p to s moves x and the working
            # multipliers to x_w + s dx and mu_w + s dmu.
            falling = np.flatnonzero(
                dmu < -1e-12 * (1.0 + np.abs(dmu).max(initial=0.0)))
            t_drop = np.inf
            if falling.size:
                ratios = np.maximum(mu_w[falling], 0.0) / -dmu[falling]
                drop = int(falling[ratios.argmin()])
                t_drop = max(float(ratios.min()), t)
            # No step can reduce the violation of row p when it lies in the
            # span of the working rows: always with n of them, and otherwise
            # when H dx = -(n_p + A' dmu) cancels to roundoff or the curvature
            # q = dx' H dx = -n_p' dx is not positive.
            q = -float(n_p @ dx)
            cancel = np.abs(n_p).max() + np.abs(A.T @ dmu).max(initial=0.0)
            if (len(work) == n or q <= 0.0
                    or np.abs(H @ dx).max() <= 1e-10 * cancel):
                if drop < 0:
                    x, work, lam = x_w + t * dx, [], np.zeros(0)
                    status = "infeasible"
                    break
                t_full = np.inf
            else:
                t_full = float(n_p @ x_w - h[p]) / q
            if t_drop < t_full:
                t = t_drop
                x, lam = x_w + t * dx, mu_w + t * dmu
            else:
                x, lam = x_w + t_full * dx, np.append(mu_w + t_full * dmu, t_full)
                work.append(p)
                drop = -1
        if drop >= 0:
            del work[drop]
            lam = np.delete(lam, drop)
            continue
        viol = G @ x - h
        worst = float(viol.max())
        viol[work] = -np.inf
        p, t = int(viol.argmax()), 0.0
        if viol[p] <= tol:
            if worst > tol:
                # Roundoff leaves a working row violated: refine once on the
                # final working set with the KKT residual as right-hand side.
                A = G[work]
                sol = _kkt_solve(H, A, np.concatenate(
                    [neg_g - H @ x - A.T @ lam, h[work] - A @ x]))
                it += 1
                if sol is not None:
                    x, lam = x + sol[0], lam + sol[1]
                    if lam.min() >= -1e-10:
                        worst = float((G @ x - h).max())
            if worst <= tol:
                status = "optimal"
            break

    multipliers = np.zeros(m)
    multipliers[work] = np.maximum(lam, 0.0)
    return QpResult(x=x, status=status, iterations=it,
                    active_set=sorted(work), multipliers=multipliers)
