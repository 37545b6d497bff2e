"""Discrete prediction model and terminal-cost machinery.

Exact zero-order-hold discretization of the pair of double integrators,
and the terminal controller: the infinite-horizon LQR gain and, as the
terminal weight, the Riccati solution from a structure-preserving doubling
iteration, which makes the finite horizon cost match the infinite-horizon
one under that controller.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "LtiModel",
    "TerminalData",
    "continuous_matrices",
    "discretize_double_integrator",
    "riccati_solution",
    "spectral_radius",
    "terminal_data",
]


@dataclass(frozen=True)
class LtiModel:
    """Per-step transition matrices z+ = A z + B v and the sampling time."""

    A: np.ndarray
    B: np.ndarray
    ts: float


@dataclass(frozen=True)
class TerminalData:
    """Terminal controller gain, terminal weight, and closed-loop radius."""

    K: np.ndarray
    Qbar: np.ndarray
    spectral_radius: float


def continuous_matrices():
    """Continuous-time matrices of the two decoupled double integrators."""
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    B = np.zeros((4, 2))
    B[1, 0] = 1.0
    B[3, 1] = 1.0
    return A, B


def discretize_double_integrator(ts: float) -> LtiModel:
    """Exact ZOH discretization of the double-integrator pair.

    The chain structure admits the closed form A = [[1, ts], [0, 1]] and
    B = [[ts^2/2], [ts]] per chain; no matrix exponential is needed.
    """
    if not ts > 0.0:
        raise ConfigError("ts must be positive")
    a = np.array([[1.0, ts], [0.0, 1.0]])
    b = np.array([[0.5 * ts * ts], [ts]])
    A = np.zeros((4, 4))
    B = np.zeros((4, 2))
    A[:2, :2] = a
    A[2:, 2:] = a
    B[:2, :1] = b
    B[2:, 1:] = b
    return LtiModel(A, B, ts)


_DOUBLING_STEPS = 64


def riccati_solution(model: LtiModel, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Structure-preserving doubling (Chu, Fan & Lin, 2005): with
    A_0 = A, G_0 = B R^-1 B' and H_0 = Q, each step sets
    W = I + G_k H_k and
        A_k+1 = A_k W^-1 A_k,
        G_k+1 = G_k + A_k W^-1 G_k A_k',
        H_k+1 = H_k + A_k' H_k W^-1 A_k.
    H_k is the value of the Riccati recursion after 2^k steps from Q, so
    it converges quadratically where the fixed-point recursion converges
    linearly at the closed loop's rate.
    """
    A = np.array(model.A, dtype=float)
    G = model.B @ np.linalg.solve(R, model.B.T)
    H = np.array(Q, dtype=float)
    eye = np.eye(A.shape[0])
    for _ in range(_DOUBLING_STEPS):
        w = eye + G @ H
        wa = np.linalg.solve(w, A)
        H_next = H + A.T @ H @ wa
        H_next = 0.5 * (H_next + H_next.T)
        G = G + A @ np.linalg.solve(w, G) @ A.T
        G = 0.5 * (G + G.T)
        A = A @ wa
        if not np.all(np.isfinite(H_next)):
            break
        if np.max(np.abs(H_next - H)) <= 1e-15 * np.max(np.abs(H_next)):
            return H_next
        H = H_next
    raise NumericalError(
        "Riccati doubling did not converge to a finite solution within "
        f"{_DOUBLING_STEPS} steps"
    )


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue magnitude, from the LAPACK QR eigensolver."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError("spectral_radius expects a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def terminal_data(model: LtiModel, Q: np.ndarray, R: np.ndarray) -> TerminalData:
    """LQR gain, terminal weight, and closed-loop spectral radius.

    The gain K = -(R + B'PB)^-1 B'PA comes from the Riccati solution P; the
    sign is carried inside K, so the closed loop is A + B K. Substituting K
    into the Riccati equation gives P - Acl' P Acl = Q + K' R K, so P is
    also the Lyapunov solution that makes the terminal cost the
    infinite-horizon cost under K, and it is the terminal weight. That
    holds only for a contraction A + B K; weights that leave a mode
    undetectable, such as Q = 0, give a P whose gain is not one and raise
    ConfigError.
    """
    P = riccati_solution(model, Q, R)
    BtP = model.B.T @ P
    K = -np.linalg.solve(R + BtP @ model.B, BtP @ model.A)
    rho = spectral_radius(model.A + model.B @ K)
    if rho >= 1.0:
        raise ConfigError("terminal gain not stabilizing")
    return TerminalData(K=K, Qbar=P, spectral_radius=rho)
