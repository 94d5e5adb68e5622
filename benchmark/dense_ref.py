"""Dense reference solution of small control problems, built apart from sparsebeam.

The discrete problem is assembled here from the weak form of the clamped
Timoshenko beam,

    (E/12) int theta' beta' + (kappa/t^2) int (w' - theta)(v' - beta) = int (f + u) v,

with continuous piecewise-linear w and theta, the shear term integrated by
the one-point midpoint rule (the locking-free scheme), piecewise-constant
load f and control u, on a uniform mesh of [0, 1].  The control problem

    min 1/2 ||w||^2 + nu/2 ||u||^2 + eta ||u||_L1   over  a <= u <= b

is a box-constrained quadratic program in u once the state is eliminated.
It is solved by L-BFGS-B on the split u = u_plus - u_minus, where the L1
term becomes linear.  The reference's own accuracy is bounded by the
Frank-Wolfe gap of its answer: for a convex objective,
J(u) - J* <= max over the box of the linearised decrease.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


@dataclass(frozen=True)
class DenseInstance:
    n: int
    E: float
    t: float
    kappa: float
    nu: float
    eta: float
    bound: float  # box [-bound, bound]
    f: np.ndarray  # elementwise load values


def _state_map(inst: DenseInstance):
    """(S, w0, M): interior deflection w = w0 + S u and the interior P1 mass."""
    n, h = inst.n, 1.0 / inst.n
    dofs = 2 * (n + 1)  # w_0..w_n, then theta_0..theta_n
    K = np.zeros((dofs, dofs))
    F = np.zeros(dofs)
    B = np.zeros((dofs, n))
    M = np.zeros((dofs, dofs))
    shear = inst.kappa / inst.t**2
    for j in range(n):
        w = [j, j + 1]
        th = [n + 1 + j, n + 2 + j]
        K[np.ix_(th, th)] += (inst.E / 12.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        # w' - theta at the midpoint, as a row over (w_j, w_j+1, th_j, th_j+1)
        g = np.array([-1.0 / h, 1.0 / h, -0.5, -0.5])
        idx = w + th
        K[np.ix_(idx, idx)] += shear * h * np.outer(g, g)
        F[w] += inst.f[j] * h / 2.0
        B[w, j] += h / 2.0
        M[np.ix_(w, w)] += (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    inner = [i for i in range(dofs) if i not in (0, n, n + 1, 2 * n + 1)]
    Ki = K[np.ix_(inner, inner)]
    X0 = np.linalg.solve(Ki, F[inner])
    XB = np.linalg.solve(Ki, B[inner])
    w_rows = slice(0, n - 1)  # interior w dofs come first in `inner`
    Mw = M[1:n, 1:n]
    return XB[w_rows], X0[w_rows], Mw


def objective(inst: DenseInstance, u: np.ndarray) -> float:
    """J(u) of the dense discrete problem."""
    S, w0, Mw = _state_map(inst)
    w = w0 + S @ u
    h = 1.0 / inst.n
    return float(0.5 * w @ Mw @ w + 0.5 * inst.nu * h * u @ u + inst.eta * h * np.sum(np.abs(u)))


@dataclass(frozen=True)
class DenseSolution:
    u: np.ndarray
    J: float
    gap: float  # upper bound on J - J*


def solve(inst: DenseInstance) -> DenseSolution:
    S, w0, Mw = _state_map(inst)
    n, h = inst.n, 1.0 / inst.n
    H = S.T @ Mw @ S + inst.nu * h * np.eye(n)
    c = S.T @ Mw @ w0
    const = 0.5 * w0 @ Mw @ w0
    scale = 1.0 / max(const, 1e-300)  # keep the objective near 1 for L-BFGS-B

    def split_objective(x):
        u = x[:n] - x[n:]
        g = H @ u + c
        val = 0.5 * u @ H @ u + c @ u + const + inst.eta * h * np.sum(x)
        grad = np.concatenate([g, -g]) + inst.eta * h
        return scale * val, scale * grad

    res = minimize(split_objective, np.zeros(2 * n), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, inst.bound)] * (2 * n),
                   options={"maxiter": 20000, "maxfun": 40000, "ftol": 1e-16, "gtol": 1e-14})
    u = res.x[:n] - res.x[n:]
    g = H @ u + c
    # linear minimisation over the box: each coordinate's best of -b, 0, b
    lin = np.minimum(0.0, np.minimum(-g * inst.bound, g * inst.bound) + inst.eta * h * inst.bound)
    gap = float(g @ u + inst.eta * h * np.sum(np.abs(u)) - np.sum(lin))
    return DenseSolution(u=u, J=objective(inst, u), gap=max(gap, 0.0))
