"""Independent cross-checks for the active-set solver.

Everything here works on the *reduced* problem: eliminating the state gives

    min_u  1/2 u'D(nu*I + T)u - u'D r0 + const + eta*||u||_L1  over [a, b],

with D = diag(element sizes), T the dense control-to-averaged-adjoint map,
and r0 the averaged descent adjoint at u = 0.  The elementwise gradient of
the smooth part is nu*u + T u - r0 = nu*u - pbar(u); the D-weights cancel
out of the proximal step, so plain soft-shrinkage plus clipping applies.

T and r0 do not depend on the control: the first ReducedQuadratic of a
problem builds them, next to H, the symmetric part of DT, and keeps them
read-only in this module, keyed weakly by the problem's OptimalitySystem.
with_control copies share that system and so the build, which is freed with
the system.  The problem holds sparse data only and the active-set solver
never reads T, so the oracles stay independent of the code they check.

Two products serve two purposes.  The iterations -- FISTA's and the power
iteration's -- use T u = (H u) / h, a symmetric product that reads one
triangle of H, half the memory of T u.  Everything a certificate rests on
reads T itself: pbar, the branch classification, the polish, the
fixed-point residual and partial_objective.  So a certified control depends
only on T, r0 and its branch pattern.

prox_gradient_solve runs FISTA with gradient-based adaptive restart, at one
symmetric product per iteration (T v follows by linearity).  Every
_POLISH_EVERY iterations, and at _MAX_ITER, a checkpoint spends one exact
product T u on pbar and the fixed-point residual, tests it against _TOL and
attempts an exact "polish": classify branches from pbar, solve the
free-branch linear system, and verify every Karush-Kuhn-Tucker inequality
explicitly.  A polish that fails verification is not thrown away: its
exact pbar is one dense primal-dual active-set step from the next pattern,
so the checkpoint classifies again from it and polishes again.  The chain
ends at a verified pattern, at a pattern it has already polished, or after
_POLISH_STEPS polishes.  If no polish verifies, FISTA goes on, unless the
checkpoint met _TOL or reached _MAX_ITER: that one returns the iterate
uncertified.  The problem is strictly convex, so a point passing that
verification is the unique minimizer -- the returned certificate depends
only on the verified pattern, not on the chain, iteration counts or the
two limits.

fd_gradient_check differences the package's one cost, control.cost, which
the active-set solver never evaluates; it has no cost rule of its own.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import dsymv

from .control import (
    BRANCH_LOWER,
    BRANCH_NEG,
    BRANCH_POS,
    BRANCH_UPPER,
    BRANCH_ZERO,
    classify_branches,
    fixed_control,
    shrink,
)
from .meshes import P0Field
from .problem import ControlProblem, OptimalitySystem

__all__ = [
    "ReducedQuadratic",
    "prox_gradient_solve",
    "fd_gradient_check",
]


# FISTA iterations between two checkpoints (residual, tolerance, polish)
_POLISH_EVERY = 200
# polishes in one checkpoint's chain
_POLISH_STEPS = 8
# a checkpoint whose fixed-point residual is at most _TOL * (1 + max|u|), or
# that FISTA reaches after _MAX_ITER iterations, ends the solve
_TOL = 1e-12
_MAX_ITER = 1_000_000

# the power iteration stops once two estimates agree to this, relatively
_POWER_RTOL = 1e-12
_POWER_MAX = 200

_FD_PERTURBATIONS = 10  # random elements that fd_gradient_check perturbs


@dataclass
class OracleResult:
    u: P0Field
    mu: P0Field
    iterations: int
    converged: bool
    certified: bool
    fixed_point_residual: float
    branches: Optional[np.ndarray] = None


# (T, r0, H) of each OptimalitySystem that a ReducedQuadratic has read.  The
# values are plain arrays that hold no reference to their key, so an entry
# goes with its system.
_REDUCED = weakref.WeakKeyDictionary()


def _reduced(system: OptimalitySystem) -> tuple:
    """Dense reduced operator T = Avg K^-1 Mt K^-1 B, r0, the adjoint
    average at u = 0, so that pbar(u) = r0 - T u, and H.  Built on the
    system's first call by two solves of n columns each and two single
    ones, then shared read-only.  From n = 64 elements on (the operator's
    column rule) the two wide solves substitute a row block of the Cholesky
    factor at a time over all columns, in place, and the build peaks at
    three arrays of 2(n - 1) x n: at n = 736, 26 MB to keep 8.7 MB.

    DT = diag(h) T = B^T K^-1 Mt K^-1 B is symmetric in exact arithmetic
    but not in the two-solve build; H is its symmetric part, which a
    symmetric product reads one triangle of.  H is symmetric bit for bit,
    so its C-ordered sum is stored transposed, as a Fortran-ordered array
    with the same entries."""
    built = _REDUCED.get(system)
    if built is None:
        op = system.operator
        T = np.asarray(system.Avg @ op.solve(system.Mt @ op.solve(system.B.toarray())))
        x0 = op.solve(system.Lf)
        r0 = np.asarray(system.Avg @ op.solve(system.Ld - system.Mt @ x0))
        DT = op.mesh.element_sizes[:, None] * T
        H = np.add(DT, DT.T)
        H *= 0.5
        for a in (T, r0, H):
            a.flags.writeable = False
        built = _REDUCED[system] = (T, r0, H.T)
    return built


class ReducedQuadratic:
    """Dense reduced form of one control problem.

    T, r0 and H live in this module, keyed by the problem's
    OptimalitySystem (_reduced): the first ReducedQuadratic of a system
    builds them, in O(n^2) work and memory, every later one, also on a
    with_control copy, shares them read-only, and they are freed with the
    system.  sym_product, the product of FISTA and of the power iteration,
    reads H; pbar, partial_objective and the polish read T.
    """

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        self.T, self.r0, self.H = _reduced(problem.system)
        self.h = problem.mesh.element_sizes
        self.nu = problem.control.nu
        self.eta = problem.control.eta
        self.a, self.b = problem.bounds

    def pbar(self, u: np.ndarray) -> np.ndarray:
        return self.r0 - self.T @ u

    def partial_objective(self, u: np.ndarray) -> float:
        """Objective up to the u-independent constant."""
        q = 0.5 * self.nu * u * u + 0.5 * u * (self.T @ u) - u * self.r0
        return float(np.sum(self.h * q) + self.eta * np.sum(self.h * np.abs(u)))

    def sym_product(self, u: np.ndarray) -> np.ndarray:
        """T u as (H u) / h, a product that reads one triangle of H, the
        symmetric part of D T.  It differs from T @ u by roundoff and by the
        build's asymmetry, so only iterations use it, never a certificate."""
        return dsymv(1.0, self.H, u) / self.h

    def lipschitz(self) -> float:
        """Largest eigenvalue of nu*I + T (power iteration from the all-ones
        vector, on symmetric products).  Where T's entries are positive, as
        on the clamped beams measured, so is its top eigenvector (Perron-
        Frobenius), and the start lies close to it: the iteration stops once
        two estimates agree to _POWER_RTOL, in a handful of products, or
        after _POWER_MAX."""
        v = np.ones(self.T.shape[0])
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(_POWER_MAX):
            w = self.nu * v + self.sym_product(v)
            lam, prev = float(np.linalg.norm(w)), lam
            if lam == 0.0:
                break
            v = w / lam
            if abs(lam - prev) <= _POWER_RTOL * lam:
                break
        return lam * 1.02 + self.nu

    def step(self, u: np.ndarray, Tu: np.ndarray, tau: float) -> np.ndarray:
        """Proximal gradient step from u, given its product Tu = T u; the
        elementwise gradient of the smooth part is nu*u - pbar(u)."""
        v = u - tau * (self.nu * u - (self.r0 - Tu))
        return np.clip(shrink(v, tau * self.eta), self.a, self.b)

    def fixed_point_residual(self, u: np.ndarray, Tu: np.ndarray, tau: float) -> float:
        return float(np.max(np.abs(u - self.step(u, Tu, tau))))


def _polish(rq: ReducedQuadratic, branches: np.ndarray):
    """Solve the free-branch system for a fixed branch pattern and verify
    every optimality inequality.  Returns (u, pbar, certified), pbar the
    exact pbar(u) of the unclipped solution."""
    nu, eta, a, b = rq.nu, rq.eta, rq.a, rq.b
    u = fixed_control(branches, a, b)
    free = np.nonzero((branches == BRANCH_POS) | (branches == BRANCH_NEG))[0]
    if free.size:
        fixed = np.setdiff1d(np.arange(u.size), free)
        s = np.where(branches[free] == BRANCH_POS, 1.0, -1.0)
        rhs = rq.r0[free] - eta * s - rq.T[np.ix_(free, fixed)] @ u[fixed]
        m = nu * np.eye(free.size) + rq.T[np.ix_(free, free)]
        u[free] = np.linalg.solve(m, rhs)
    pbar = rq.pbar(u)
    mu = pbar - nu * u
    # two tolerance scales: multiplier checks live in adjoint units, sign and
    # bound checks on u live in control units
    slack_p = 1e-9 * (eta + np.max(np.abs(pbar)) + 1e-300)
    slack_u = 1e-8 * (1.0 + np.max(np.abs(u)))
    ok = True
    z0 = branches == BRANCH_ZERO
    ok &= bool(np.all(np.abs(mu[z0]) <= eta + slack_p))
    pos = branches == BRANCH_POS
    ok &= bool(np.all(u[pos] >= -slack_u) and np.all(u[pos] <= b[pos] + slack_u))
    neg = branches == BRANCH_NEG
    ok &= bool(np.all(u[neg] <= slack_u) and np.all(u[neg] >= a[neg] - slack_u))
    up = branches == BRANCH_UPPER
    ok &= bool(np.all(mu[up] >= eta - slack_p))
    lo = branches == BRANCH_LOWER
    ok &= bool(np.all(mu[lo] <= -eta + slack_p))
    return u, pbar, ok


def prox_gradient_solve(problem: ControlProblem) -> OracleResult:
    """Accelerated proximal gradient descent on the reduced problem.

    Certification makes the answer tolerance-independent: once a branch
    pattern verifies, the polished point is the exact minimizer up to one
    dense linear solve.  At each checkpoint after the first, and at one
    that ends the solve, the pattern is classified from the iterate's exact
    pbar; a polish that fails verification hands its own exact pbar to the
    next classification, a chain of at most _POLISH_STEPS polishes that also
    stops when a pattern recurs.  The fixed-point residual, and with it the
    _TOL test, is measured at the checkpoints only; the returned one is that
    of the returned point.
    """
    rq = ReducedQuadratic(problem)
    n = problem.mesh.n
    tau = 1.0 / rq.lipschitz()
    # the iterates carry their symmetric products: one fresh product per
    # iteration, T u_new, and T v by linearity from two fresh ones
    u = np.zeros(n)
    Tu = np.zeros(n)
    v, Tv = u, Tu
    t = 1.0
    iterations = 0

    def finish(u, mu, certified, fp, branches):
        mesh = problem.mesh
        return OracleResult(
            u=P0Field(mesh, u),
            mu=P0Field(mesh, mu),
            iterations=iterations,
            converged=converged or certified,
            certified=certified,
            fixed_point_residual=fp,
            branches=branches,
        )

    def try_polish(pbar):
        seen = set()
        for _ in range(_POLISH_STEPS):
            branches = classify_branches(pbar, rq.a, rq.b, rq.nu, rq.eta)
            pattern = branches.tobytes()
            if pattern in seen:
                return None
            seen.add(pattern)
            u_p, pbar, ok = _polish(rq, branches)
            if ok:
                mu_p = pbar - rq.nu * u_p
                u_p = np.clip(u_p, rq.a, rq.b)
                fp_p = rq.fixed_point_residual(u_p, rq.T @ u_p, tau)
                return finish(u_p, mu_p, True, fp_p, branches)
        return None

    while True:
        if iterations % _POLISH_EVERY == 0 or iterations >= _MAX_ITER:
            # checkpoint: one exact product gives pbar and the residual of u
            Tu_exact = rq.T @ u
            pbar = rq.r0 - Tu_exact
            fp = rq.fixed_point_residual(u, Tu_exact, tau)
            converged = fp <= _TOL * (1.0 + np.max(np.abs(u)))
            done = converged or iterations >= _MAX_ITER
            if iterations or done:
                polished = try_polish(pbar)
                if polished is not None:
                    return polished
            if done:
                branches = classify_branches(pbar, rq.a, rq.b, rq.nu, rq.eta)
                return finish(u, pbar - rq.nu * u, False, fp, branches)
        iterations += 1
        u_new = rq.step(v, Tv, tau)
        # gradient-based adaptive restart: drop the momentum, step from u
        if np.dot(v - u_new, u_new - u) > 0:
            t = 1.0
            u_new = rq.step(u, Tu, tau)
        Tu_new = rq.sym_product(u_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        v = u_new + beta * (u_new - u)
        Tv = (1.0 + beta) * Tu_new - beta * Tu
        t = t_new
        u, Tu = u_new, Tu_new


def fd_gradient_check(problem: ControlProblem, u: P0Field, step: Optional[float] = None,
                      rng: Optional[np.random.Generator] = None) -> float:
    """Max relative deviation between the adjoint gradient and central
    finite differences of the smooth reduced cost.

    J(u) is the tracking plus quadratic term of problem.cost at the state
    of u; its Gauss rule reads the target as the adjoint load does.
    Perturbs u elementwise on _FD_PERTURBATIONS randomly chosen elements and
    compares (J(u + s e_j) - J(u - s e_j)) / 2s against the coordinate
    gradient h_j*(nu*u_j - pbar_j), each deviation divided by
    max(1, |fd value|).  The smooth reduced cost is exactly quadratic in u,
    so the central difference has no truncation error at any step size: the
    deviation is the cancellation error of the difference quotient, roughly
    the roundoff of J divided by the step, and it falls as the step grows.
    The default step is 1e-2 * max(1, max|u|); a step of 1e-5 is roundoff
    bound on thin beams with a control saturated at large bounds.
    """
    if step is None:
        step = 1e-2 * max(1.0, float(np.max(np.abs(u.values))))
    mesh = problem.mesh
    gen = rng if rng is not None else np.random.default_rng(0)
    count = min(_FD_PERTURBATIONS, mesh.n)
    picks = gen.choice(mesh.n, size=count, replace=False)
    pbar = problem.averaged_adjoint(problem.solve_state(u)).values
    g = mesh.element_sizes * (problem.control.nu * u.values - pbar)

    def smooth_cost(v):
        c = problem.cost(P0Field(mesh, v))
        return c.tracking + c.l2_term

    worst = 0.0
    for j in picks:
        up = u.values.copy()
        um = u.values.copy()
        up[j] += step
        um[j] -= step
        fd = (smooth_cost(up) - smooth_cost(um)) / (2.0 * step)
        worst = max(worst, abs(g[j] - fd) / max(1.0, abs(fd)))
    return worst
