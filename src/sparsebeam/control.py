"""Pointwise optimality machinery for the sparse box-constrained control.

Cost functional:

    J(w, u) = 1/2 ||w - w_d||^2  +  nu/2 ||u||^2  +  eta ||u||_L1,

minimized over controls with pi_h(a) <= u <= pi_h(b) elementwise.  With the
descent-convention averaged adjoint pbar (see ControlProblem.solve_adjoint),
the optimality system reads nu*u + mu = pbar with mu = lambda + lambda_b -
lambda_a, |lambda| <= eta and lambda = eta*sign(u) where u is nonzero, and
nonnegative bound multipliers lambda_a, lambda_b with complementary
slackness.  Its pointwise solution is a clipped soft-shrinkage:

    u_j = clip( shrink(pbar_j, eta) / nu, a_j, b_j ).

complementarity_values() evaluates the nonsmooth reformulation C(u, mu)
whose root set is exactly this system; C = 0 is both the Newton residual and
the a-posteriori certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .meshes import GAUSS_2PT, Mesh1D, P0Field, P1Field, eval_p1, pi_h, point_values

__all__ = [
    "ControlParams",
    "CostBreakdown",
    "MultiplierState",
    "discretize_bounds",
    "shrink",
    "complementarity_values",
    "classify_branches",
    "fixed_control",
    "cost",
    "reconstruct_multipliers",
    "BRANCH_ZERO",
    "BRANCH_LOWER",
    "BRANCH_UPPER",
    "BRANCH_NEG",
    "BRANCH_POS",
]

BoundData = Union[float, P0Field, Callable[[np.ndarray], np.ndarray]]

# branch codes of the pointwise KKT system
BRANCH_ZERO = 0    # u = 0, |mu| <= eta
BRANCH_POS = 1     # 0 < u < b, mu = eta
BRANCH_NEG = -1    # a < u < 0, mu = -eta
BRANCH_UPPER = 2   # u = b, mu >= eta
BRANCH_LOWER = -2  # u = a, mu <= -eta


@dataclass(frozen=True)
class ControlParams:
    """Control weights and box bounds.

    nu > 0 is the quadratic weight, eta >= 0 the sparsity weight, both
    finite; a <= 0 <= b are the bounds (constants, callables, or P0 fields),
    enforced elementwise after projection onto piecewise constants.
    """

    nu: float
    eta: float
    a: BoundData = -np.inf
    b: BoundData = np.inf

    def __post_init__(self):
        if not (0 < self.nu < np.inf):
            raise ValueError("nu must be positive and finite")
        if not (0 <= self.eta < np.inf):
            raise ValueError("eta must be nonnegative and finite")
        # infinite constant bounds are allowed (unconstrained side); sign
        # checks for non-constant bounds happen at discretization time.  The
        # negated form rejects NaN, which fails every comparison
        if np.isscalar(self.a) and not (self.a <= 0):
            raise ValueError("a must satisfy a <= 0")
        if np.isscalar(self.b) and not (self.b >= 0):
            raise ValueError("b must satisfy b >= 0")


def discretize_bounds(params: ControlParams, mesh: Mesh1D):
    """Project bounds onto piecewise constants; validate a <= 0 <= b elementwise."""
    a = pi_h(params.a, mesh).values
    b = pi_h(params.b, mesh).values
    if not (np.all(a <= 0) and np.all(b >= 0)):  # NaN fails both
        raise ValueError("discretized bounds must satisfy a <= 0 <= b elementwise")
    return a, b


def shrink(s, eta: float):
    """Soft shrinkage sign(s) * max(|s| - eta, 0)."""
    s = np.asarray(s, dtype=float)
    out = np.sign(s) * np.maximum(np.abs(s) - eta, 0.0)
    return out if out.ndim else float(out)


def complementarity_values(u: np.ndarray, mu: np.ndarray, a, b, nu: float, eta: float) -> np.ndarray:
    """C(u, mu) elementwise; zero exactly at points satisfying the optimality system.

    C = nu*u - max(0, nu*u + mu - eta) - min(0, nu*u + mu + eta)
             + max(0, nu*(u-b) + mu - eta) + min(0, nu*(u-a) + mu + eta)

    The lower-bound term mirrors the upper-bound one.
    """
    z = nu * u + mu
    c = (
        nu * u
        - np.maximum(0.0, z - eta)
        - np.minimum(0.0, z + eta)
        + np.maximum(0.0, nu * (u - b) + mu - eta)
        + np.minimum(0.0, nu * (u - a) + mu + eta)
    )
    return c


def classify_branches(z: np.ndarray, a: np.ndarray, b: np.ndarray, nu: float, eta: float) -> np.ndarray:
    """Partition elements by the value z = nu*u + mu (equals pbar at iterates).

    Interior branches follow the half-open active-set windows
    (nu*a < z + eta <= 0) and (0 <= z - eta < nu*b); outside them the bound
    branches apply, and |z| < eta is the zero branch.
    """
    br = np.full(z.shape, BRANCH_ZERO, dtype=int)
    br[z - eta >= nu * b] = BRANCH_UPPER
    br[z + eta <= nu * a] = BRANCH_LOWER
    pos = (z - eta >= 0) & (z - eta < nu * b)
    neg = (z + eta <= 0) & (z + eta > nu * a)
    br[pos] = BRANCH_POS
    br[neg] = BRANCH_NEG
    return br


def fixed_control(branches: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Control values implied by the non-free branches (zero on free ones)."""
    u = np.zeros(branches.shape)
    u[branches == BRANCH_UPPER] = b[branches == BRANCH_UPPER]
    u[branches == BRANCH_LOWER] = a[branches == BRANCH_LOWER]
    return u


@dataclass(frozen=True)
class CostBreakdown:
    tracking: float
    l2_term: float
    l1_term: float

    @property
    def total(self) -> float:
        return self.tracking + self.l2_term + self.l1_term


def cost(u: P0Field, w: P1Field, w_d, params: ControlParams) -> CostBreakdown:
    """Evaluate the cost functional at (u, w) for target w_d.

    The package's one cost.  point_values reads w_d (a constant, callable,
    P0Field or P1Field on any mesh) at w's two-point Gauss points, as the
    adjoint load does: exact for P0 or P1 targets on w's mesh.
    """
    mesh = w.mesh
    h = mesh.element_sizes
    tracking = 0.0
    for qpt, wq in zip(*GAUSS_2PT):
        x = mesh.nodes[:-1] + h * qpt
        d = eval_p1(w, x) - point_values(w_d, mesh, x)
        tracking += 0.5 * wq * float(np.sum(h * d * d))
    l2_term = 0.5 * params.nu * float(np.sum(h * u.values**2))
    l1_term = params.eta * float(np.sum(h * np.abs(u.values)))
    return CostBreakdown(tracking, l2_term, l1_term)


@dataclass(frozen=True)
class MultiplierState:
    """Split of the aggregate multiplier mu = lam + lam_b - lam_a."""

    mu: P0Field
    lam: P0Field
    lam_a: P0Field
    lam_b: P0Field


def reconstruct_multipliers(u: P0Field, mu: P0Field, params: ControlParams) -> MultiplierState:
    """Canonical split of mu into subgradient and bound multipliers.

    On {u > 0}: lam = eta; {u < 0}: lam = -eta; {u = 0}: lam = clip(mu, -eta, eta).
    The remainder mu - lam lands in lam_b (>= 0) or lam_a (>= 0).
    """
    eta = params.eta
    uv, mv = u.values, mu.values
    lam = np.where(uv > 0, eta, np.where(uv < 0, -eta, np.clip(mv, -eta, eta)))
    rest = mv - lam
    lam_b = np.maximum(rest, 0.0)
    lam_a = np.maximum(-rest, 0.0)
    mesh = u.mesh
    return MultiplierState(mu, P0Field(mesh, lam), P0Field(mesh, lam_a), P0Field(mesh, lam_b))
