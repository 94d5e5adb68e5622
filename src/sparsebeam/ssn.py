"""Semismooth Newton solver, implemented in primal-dual active set form.

The discrete optimality system couples the state pair x = (w, theta), the
adjoint pair y = (p, q), the control u, and the aggregate multiplier mu:

    F1:  K x - B u - L_f        = 0     (state equation)
    F2:  nu*u + mu - pbar       = 0     (gradient consistency)
    F3:  Mt x + K y - L_d       = 0     (adjoint, descent convention)
    F4:  C(u, mu)               = 0     (pointwise optimality)

where pbar is the elementwise nodal average of p, B carries a piecewise
constant control to the deflection load, and Mt is the tracking mass term.

Each iteration classifies every element by z = nu*u + mu (which equals pbar
at all iterates after the first), freezes the implied branch -- zero, lower
or upper bound, or free with mu = +/- eta -- and solves the resulting linear
coupled system exactly.  That is the semismooth Newton step for C written in
new-iterate form, so the method terminates finitely: once the branch pattern
repeats, the iterate solves its own linearization and C vanishes to
roundoff.

The blocks K, Mt, B and Avg and the loads come from the problem's cached
OptimalitySystem.  Each pattern system is solved by one LAPACK banded LU
(dgbtrf/dgbtrs).  Ordered node by node -- the controls of the elements
interleaved with the (w, theta, p, q) unknowns of the interior nodes -- the
element-local blocks give a band of 7 sub- and 6 superdiagonals at every
mesh size, thickness and grading.  Controls off the free branches keep
their slots as decoupled unit rows, so the band layout never changes; its
pattern-independent part is assembled once per solve, on the first pattern
with a free element, and one band storage is refilled for every pattern.
The stiffness carries the 1/t^2 shear scale, so its rows differ in size by
orders of magnitude; each state and adjoint row is scaled by a power of two
that brings its stiffness part to max-norm in [1/2, 1), exactly and once per
solve.  On the equilibrated rows one step of iterative refinement on the
same factor, its residual taken from the unscaled system, brings the
componentwise backward error close to roundoff; on the unscaled rows two
steps left it orders of magnitude above (Skeel 1980; Higham, Accuracy and
Stability of Numerical Algorithms, ch. 12).  A pattern with no free element
decouples into two solves with the stiffness operator.

One active-set iteration serves the main loop, the reseed's proximal
stages and its probes.  The pattern map is deterministic, so it stops at
the first of three events: a fixed point (its solve depends on the pattern
alone, so its residual is final), its cap of pattern solves, or a
recurring pattern (a cycle, which can never settle).  The main loop starts
from z = 0.  With a very small L2 weight it can overshoot the bounds and
cycle; it is then reseeded once from a proximal-point continuation, whose
first weight is ten times the secant of the reduced operator along the
last two iterates (at least nu) and whose first center is the warm start
u0 when one is given.  The reseed ends on a probe that has settled at the
true weight; that probe's solve is the loop's last iterate.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .control import (
    BRANCH_NEG,
    BRANCH_POS,
    MultiplierState,
    classify_branches,
    complementarity_values,
    fixed_control,
    reconstruct_multipliers,
    shrink,
    variational_inequality_residual,
)
from .fem import AdjointSolution, LinearSolveError, StateSolution
from .meshes import P0Field, p0_average
from .problem import ControlProblem

__all__ = [
    "SSNConfig",
    "SSNResult",
    "ssn_solve",
    "residual",
    "newton_system",
    "kkt_residual",
]


@dataclass(frozen=True)
class SSNConfig:
    """Solver knobs.  max_iter bounds the main loop's iterations, so the
    length of residual_history; SSNResult.iterations also counts the
    reseed's pattern solves, which have their own budget of 800.  u0 must
    live on the problem's mesh; clipped to the box, it is the first center
    of the reseed if the iteration cycles.  It does not seed the branch
    classification: along a sweep, the previous control's adjoint average
    lies inside the new weight's zero band, so it would classify every
    element as zero, exactly as a cold start does."""

    tol: float = 1e-10
    max_iter: int = 50
    u0: Optional[P0Field] = None

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SSNResult:
    u: P0Field
    mu: P0Field
    state: StateSolution
    adjoint: AdjointSolution
    multipliers: MultiplierState
    converged: bool
    # "converged" or "repeat_above_tol" (a fixed point that meets tol or
    # misses it), "max_iter", or "reseed_budget" (the reseed spent its 800
    # solves and the resumed main loop did not reach a fixed point)
    stop_reason: str
    iterations: int
    residual_history: List[float] = field(default_factory=list)
    active_set_history: List[np.ndarray] = field(default_factory=list)
    null_count: int = 0


# Band layout of a pattern system: a slot for every element control and the
# unknowns (w_i, theta_i, p_i, q_i) of every interior node, in the order
# u_0, node 1, u_1, node 2, ..., node n-1, u_{n-1}; the equations follow the
# same order.  All blocks are element-local, so the matrix is banded with KL
# sub- and KU superdiagonals at any n, thickness or mesh grading: KL = 7 is
# reached by the tracking mass coupling a node's adjoint rows to the
# previous node's state, KU = 6 by the stiffness coupling to the next node.
# A control off the free branches keeps its slot as a unit row and column
# with no coupling, so it drops out of the system exactly, LU does no
# elimination work on it, and no pattern re-indexes the band.
_KL, _KU = 7, 6
_DIAG = _KL + _KU  # band row of the main diagonal in LAPACK band storage
_SLOTS = 5  # slots per element: its control and its right end node


class _PatternBand:
    """Banded LU of the coupled system of one branch pattern.

    The pattern-independent stiffness/mass part of the band is assembled
    once; a pattern copies it into one band storage, reused by every
    pattern, and sets the control rows and columns: -B_f, -Avg_f and nu on
    free elements, a unit diagonal elsewhere.  The band is row-equilibrated:
    the state row and the adjoint row of each interior dof are scaled by
    2^-e, e the binary exponent of the largest |entry| in that dof's
    stiffness row, so the stiffness parts of the scaled rows lie in
    [1/2, 1) in max-norm.  A power of two scales exactly, so the scaled and
    unscaled systems have the same solution; the control rows keep scale 1,
    as does the row of a dof without stiffness.
    """

    def __init__(self, K: sp.csr_matrix, Mt: sp.csr_matrix, B: sp.csr_matrix,
                 Avg: sp.csr_matrix):
        self.K, self.Mt, self.B, self.Avg = K, Mt, B, Avg
        n = B.shape[1]
        self.m = K.shape[0]
        self.size = _SLOTS * n - 4

        def slot(dof, comp):  # interleaved dof -> band slot; comp 2 for the adjoint
            return _SLOTS * (dof // 2) + 1 + comp + dof % 2

        # the blocks [[K, 0], [Mt, K]] of the state and adjoint rows
        k, mt = K.tocoo(), Mt.tocoo()
        r = np.concatenate([slot(k.row, 0), slot(k.row, 2), slot(mt.row, 2)])
        c = np.concatenate([slot(k.col, 0), slot(k.col, 2), slot(mt.col, 0)])
        self.fixed = np.zeros((_KL + _KU + 1, self.size), order="F")
        self.fixed[_KU + r - c, c] = np.concatenate([k.data, k.data, mt.data])
        # row scales 2^-e of the stiffness rows, 1 for rows without entries
        k_max = np.zeros(self.m)
        rows = np.diff(K.indptr) > 0
        k_max[rows] = np.maximum.reduceat(np.abs(K.data), K.indptr[:-1][rows])
        d = np.ldexp(1.0, -np.frexp(k_max)[1])
        self.scale = self._to_band(d, d, 1.0)
        # in place through a strided view: band entry [r, j] is the matrix
        # entry of row j + r - KU, so it takes scale[j + r - KU]
        padded = np.pad(self.scale, (_KU, _KL), constant_values=1.0)
        self.fixed.T[...] *= np.lib.stride_tricks.sliding_window_view(padded, _KL + _KU + 1)
        # entries of B (on the scaled w rows) and Avg per element, at its
        # left [0] and right [1] end node
        b, avg = B.tocoo(), Avg.tocoo()
        self.b_end = np.zeros((2, n))
        self.b_end[(b.row != 2 * (b.col - 1)).astype(int), b.col] = b.data * d[b.row]
        self.avg_end = np.zeros((2, n))
        self.avg_end[(avg.col != 2 * (avg.row - 1)).astype(int), avg.row] = avg.data
        self.ab = np.empty((2 * _KL + _KU + 1, self.size), order="F")

    def _fill(self, is_free: np.ndarray, nu: float) -> np.ndarray:
        ab = self.ab
        ab[_KL:] = self.fixed  # rows above KL are LU fill, which dgbtrf sets itself
        ctl = ab[:, 0::_SLOTS]  # control columns
        ctl[_DIAG] = np.where(is_free, nu, 1.0)
        ctl[_DIAG - 4] = np.where(is_free, -self.b_end[0], 0.0)  # w row of the left node
        ctl[_DIAG + 1] = np.where(is_free, -self.b_end[1], 0.0)  # w row of the right node
        p_col = ab[:, 3::_SLOTS]  # p columns of the interior nodes
        p_col[_DIAG + 2] = np.where(is_free[1:], -self.avg_end[0, 1:], 0.0)  # control row right of it
        p_col[_DIAG - 3] = np.where(is_free[:-1], -self.avg_end[1, :-1], 0.0)  # control row left of it
        return ab

    def _to_band(self, fx, fy, fu):
        z = np.empty(self.size)
        z[0::_SLOTS] = fu
        z[1::_SLOTS] = fx[0::2]
        z[2::_SLOTS] = fx[1::2]
        z[3::_SLOTS] = fy[0::2]
        z[4::_SLOTS] = fy[1::2]
        return z

    def _from_band(self, z):
        m = self.m
        x, y = np.empty(m), np.empty(m)
        x[0::2], x[1::2] = z[1::_SLOTS], z[2::_SLOTS]
        y[0::2], y[1::2] = z[3::_SLOTS], z[4::_SLOTS]
        return x, y, z[0::_SLOTS]

    def _apply(self, is_free, nu, z):
        """Product of the band matrix with a band-ordered vector."""
        x, y, u = self._from_band(z)
        return self._to_band(self.K @ x - self.B @ np.where(is_free, u, 0.0),
                             self.Mt @ x + self.K @ y,
                             np.where(is_free, nu * u - self.Avg @ y, u))

    def solve(self, is_free, nu, f_state, f_adj, f_ctl):
        """Solve K x - B_f u_f = f_state, Mt x + K y = f_adj and
        nu u_f - Avg_f y = f_ctl on the free set, by banded LU of the
        row-equilibrated system and one refinement step on the same factor,
        its residual taken from the unscaled blocks.  Returns (x, y, u) with
        u zero off the free set."""
        lu, piv, info = dgbtrf(self._fill(is_free, nu), _KL, _KU, overwrite_ab=1)
        if info != 0:
            raise LinearSolveError(f"pattern factorization failed (dgbtrf info {info})")

        def lu_solve(r):
            z, info = dgbtrs(lu, _KL, _KU, self.scale * r, piv, overwrite_b=1)
            if info != 0:
                raise LinearSolveError(f"pattern solve failed (dgbtrs info {info})")
            return z

        rhs = self._to_band(f_state, f_adj, np.where(is_free, f_ctl, 0.0))
        z = lu_solve(rhs)
        z += lu_solve(rhs - self._apply(is_free, nu, z))
        return self._from_band(z)

    def matrix(self, is_free: np.ndarray, nu: float) -> sp.csc_matrix:
        """The unscaled pattern matrix as newton_system stacks it: rows and
        columns (state dofs, adjoint dofs, free controls)."""
        m = self.m
        band_row, col = np.nonzero(self._fill(is_free, nu)[_KL:])
        row = col + band_row - _KU
        free = np.nonzero(is_free)[0]
        ctl = np.full(is_free.size, -1)  # fixed controls drop out
        ctl[free] = 2 * m + np.arange(free.size)
        stacked = self._to_band(np.arange(m), m + np.arange(m), ctl).astype(int)
        keep = (stacked[row] >= 0) & (stacked[col] >= 0)
        vals = self.ab[_KL + band_row[keep], col[keep]] / self.scale[row[keep]]
        size = 2 * m + free.size
        return sp.csc_matrix((vals, (stacked[row[keep]], stacked[col[keep]])), shape=(size, size))


class _PatternSolver:
    """The pattern systems of one solve.

    The blocks come from the problem's cached OptimalitySystem; the band
    storage is allocated on the first pattern with a free element and is
    dropped with the solve.
    """

    def __init__(self, problem: ControlProblem):
        self.problem = problem
        self.sys = problem.system
        self.a, self.b = problem.bounds
        self.nu, self.eta = problem.control.nu, problem.control.eta

    @cached_property
    def band(self) -> _PatternBand:
        s = self.sys
        return _PatternBand(s.K, s.Mt, s.B, s.Avg)

    def rhs(self, branches: np.ndarray, shift: Optional[np.ndarray] = None):
        """Right-hand side of the coupled system for one branch pattern.

        Bound and zero controls are substituted into the state right-hand
        side.  Eliminating the state and adjoint blocks reduces the system
        to nu*I + T[free, free] with T the dense reduced operator of the
        oracle module.  A shift vector adds to the control-row right-hand
        side; together with an inflated nu it realizes the proximally
        centered subproblems of the reseeding path.  Returns the state,
        adjoint and control-row right-hand sides (the last per element, used
        on the free set), the free mask and the fixed controls.
        """
        is_free = (branches == BRANCH_POS) | (branches == BRANCH_NEG)
        u_fix = fixed_control(branches, self.a, self.b)
        f_ctl = -self.eta * np.where(branches == BRANCH_POS, 1.0, -1.0)
        if shift is not None:
            f_ctl = f_ctl + shift
        return self.sys.Lf + self.sys.B @ u_fix, self.sys.Ld, f_ctl, is_free, u_fix

    def solve(self, branches: np.ndarray, nu: Optional[float] = None,
              shift: Optional[np.ndarray] = None):
        """Solve the coupled system of one branch pattern exactly."""
        nu = self.nu if nu is None else nu
        f_state, f_adj, f_ctl, is_free, u = self.rhs(branches, shift)
        if not is_free.any():
            op = self.problem.operator
            x = op.solve(f_state)
            return x, op.solve(f_adj - self.sys.Mt @ x), u
        x, y, u_free = self.band.solve(is_free, nu, f_state, f_adj, f_ctl)
        u[is_free] = u_free[is_free]
        return x, y, u


def newton_system(problem: ControlProblem, branches: np.ndarray):
    """Expose one iteration's linear system for a given branch pattern.

    Unknowns are stacked as (state dofs, adjoint dofs, free controls).
    Returns (A, rhs, free): A is None when no element is on a free branch
    (the system then decouples into two banded solves).
    """
    ps = _PatternSolver(problem)
    f_state, f_adj, f_ctl, is_free, _ = ps.rhs(np.asarray(branches, dtype=int))
    free = np.nonzero(is_free)[0]
    rhs = np.concatenate([f_state, f_adj, f_ctl[free]])
    A = ps.band.matrix(is_free, ps.nu) if free.size else None
    return A, rhs, free


class _Run(NamedTuple):
    z: np.ndarray  # adjoint average of the last solve
    branches: np.ndarray  # the last pattern solved
    solved: tuple  # its solve (x, y, u)
    solves: int
    stop: str  # "fixed", "cap" or "cycle"


def _active_set(ps: _PatternSolver, z: np.ndarray, nu: float, cap: int,
                shift: Optional[np.ndarray] = None, visit: Optional[Callable] = None) -> _Run:
    """The active-set iteration at weight nu from the classification point z.

    Classifies z + shift, solves the pattern, takes z from the adjoint
    average of the solve and reclassifies, until a fixed point, the cap of
    pattern solves or a recurring pattern.  With a shift it solves the
    proximally centered subproblem of a reseed stage.  visit(branches,
    solved, z) is called after every solve.
    """
    def classify(z):
        return classify_branches(z if shift is None else z + shift, ps.a, ps.b, nu, ps.eta)

    branches, seen, solves = classify(z), set(), 0
    while True:
        seen.add(branches.tobytes())
        solved = ps.solve(branches, nu, shift)
        solves += 1
        z = ps.sys.Avg @ solved[1]
        if visit is not None:
            visit(branches, solved, z)
        nxt = classify(z)
        if np.array_equal(nxt, branches):
            stop = "fixed"
        elif solves == cap:
            stop = "cap"
        elif nxt.tobytes() in seen:
            stop = "cycle"
        else:
            branches = nxt
            continue
        return _Run(z, branches, solved, solves, stop)


def _continuation_seed(ps: _PatternSolver, z: np.ndarray, tau: float,
                       c: np.ndarray, budget: int = 800):
    """Reseed a cycling iteration from a proximal-point continuation.

    Each stage solves the problem plus tau/2 * ||u - c||^2 centered at c:
    the true weight's sparsity threshold and box, with the classification
    point shifted by tau*c and the quadratic weight inflated by tau.  The
    first center is the caller's (a warm start, or the pointwise map of the
    cycling iterate), later ones the previous stage's solution.  Centering
    keeps the stage solutions converging to the true minimizer as tau
    shrinks; each settled stage is an exact proximal-point step, which
    cannot increase the distance to the minimizer.  The active-set map is
    contractive once tau dominates the reduced operator along the iterates,
    and near the minimizer it terminates finitely even at tau = 0, so tau
    is quartered after a settled stage and quadrupled, without a cap, after
    one that cycles or spends its 8 solves.  After every settled stage a
    one-solve probe at the true weight tests whether the plain iteration
    now terminates.  Returns the classification point, the pattern solves
    spent, and the settled probe's run, or None if the budget ran out.
    """
    total = 0
    while total < budget:
        stage = _active_set(ps, z, ps.nu + tau, 8, shift=tau * c)
        total += stage.solves
        if stage.stop != "fixed":
            tau *= 4.0
            continue
        z, c = stage.z, stage.solved[2]
        probe = _active_set(ps, z, ps.nu, 1)
        total += probe.solves
        if probe.stop == "fixed":
            return probe.z, total, probe
        tau *= 0.25
    return z, total, None


def ssn_solve(problem: ControlProblem, config: SSNConfig = SSNConfig()) -> SSNResult:
    """Run the active-set iteration to the finite-termination fixed point."""
    mesh, control = problem.mesh, problem.control
    nu, eta = control.nu, control.eta
    u0 = config.u0
    if u0 is not None and not np.array_equal(u0.mesh.nodes, mesh.nodes):
        raise ValueError("u0 lives on a different mesh")
    ps = _PatternSolver(problem)
    s, a, b = ps.sys, ps.a, ps.b

    residual_history: List[float] = []
    active_history: List[np.ndarray] = []
    latest = []  # (u, z) of the last two iterates, for the reseed's secant

    def record(branches, solved, z):
        x, y, u = solved
        active_history.append(np.nonzero((branches == BRANCH_POS) | (branches == BRANCH_NEG))[0])
        latest[:] = latest[-1:] + [(u, z)]
        # PDE rows measure the normwise backward error: for thin beams the
        # stiffness carries the 1/t^2 shear scale, so an absolute or
        # load-relative norm would sit above any direct solver's floor
        scale_f = 1.0 + np.max(np.abs(s.Lf)) \
            + s.K_norm * np.max(np.abs(x)) + s.B_norm * np.max(np.abs(u))
        scale_d = 1.0 + np.max(np.abs(s.Ld)) \
            + s.K_norm * np.max(np.abs(y)) + s.Mt_norm * np.max(np.abs(x))
        r_state = np.max(np.abs(s.K @ x - s.B @ u - s.Lf)) / scale_f
        r_adj = np.max(np.abs(s.Mt @ x + s.K @ y - s.Ld)) / scale_d
        c = complementarity_values(u, z - nu * u, a, b, nu, eta)
        # gradient and complementarity rows are normalized by max(1, nu): the
        # nu-scaled Newton row would make an unscaled max-norm vacuous
        residual_history.append(max(r_state, r_adj, np.max(np.abs(c)) / max(1.0, nu)))

    run = _active_set(ps, np.zeros(mesh.n), nu, config.max_iter, visit=record)
    iterations = run.solves
    reseed_spent = False
    if run.stop == "cycle":
        # reseed once from a proximal continuation.  Since z = pbar(u),
        # dz = -T du for the reduced operator T, so the secant |dz|/|du| of
        # the two latest iterates measures T along the direction the
        # iteration oscillates in and sets the first tau
        (u_prev, z_prev), (u_last, z) = latest
        du = np.linalg.norm(u_last - u_prev)
        secant = np.linalg.norm(z - z_prev) / du if du > 0 else 0.0
        center = u0.values if u0 is not None else shrink(z, eta) / nu
        z, extra, run = _continuation_seed(ps, z, 10.0 * max(secant, nu), np.clip(center, a, b))
        iterations += extra
        if run is None:  # the budget is spent: the main loop resumes from z
            reseed_spent = True
            run = _active_set(ps, z, nu, config.max_iter - len(residual_history), visit=record)
            iterations += run.solves
        else:  # the settled probe's solve, counted by the reseed, is the next iterate
            record(run.branches, run.solved, run.z)

    converged = False
    if run.stop == "fixed":
        # a pattern's solve depends on the pattern alone, so its residual is
        # final; the repeated set is recorded: stabilization is in the result
        active_history.append(active_history[-1])
        converged = residual_history[-1] <= config.tol
        stop_reason = "converged" if converged else "repeat_above_tol"
    else:  # a cycle always reseeds, so a run that did not settle here
        # either hit max_iter before any cycle or followed a spent reseed
        stop_reason = "reseed_budget" if reseed_spent else "max_iter"

    # final consistency pass through the banded operator so the returned
    # state/adjoint agree with solve_state/solve_adjoint on the returned u
    u_final = np.clip(run.solved[2], a, b)
    u_field = P0Field(mesh, u_final)
    state = problem.solve_state(u_field)
    adjoint = problem.solve_adjoint(state)
    mu_field = P0Field(mesh, p0_average(adjoint.p).values - nu * u_final)
    mult = reconstruct_multipliers(u_field, mu_field, control)
    return SSNResult(
        u=u_field,
        mu=mu_field,
        state=state,
        adjoint=adjoint,
        multipliers=mult,
        converged=converged,
        stop_reason=stop_reason,
        iterations=iterations,
        residual_history=residual_history,
        active_set_history=active_history,
        null_count=int(np.count_nonzero(u_final == 0.0)),
    )


def residual(problem: ControlProblem, u: P0Field, mu: P0Field,
             state: Optional[StateSolution] = None,
             adjoint: Optional[AdjointSolution] = None) -> dict:
    """Blockwise residual of the optimality system at a candidate point.

    state/adjoint default to the exact solves induced by u, which zeroes F1
    and F3; pass stale fields to probe the bookkeeping of individual blocks.
    Returns arrays F1 (state dofs), F2 (elements), F3 (state dofs), F4
    (elements).
    """
    s, (a, b) = problem.system, problem.bounds
    nu, eta = problem.control.nu, problem.control.eta
    if state is None:
        state = problem.solve_state(u)
    if adjoint is None:
        adjoint = problem.solve_adjoint(state)
    x = np.empty(s.K.shape[0])
    x[0::2] = state.w.interior
    x[1::2] = state.theta.interior
    y = np.empty(s.K.shape[0])
    y[0::2] = adjoint.p.interior
    y[1::2] = adjoint.q.interior
    pbar = p0_average(adjoint.p).values
    f1 = s.K @ x - s.B @ u.values - s.Lf
    f2 = nu * u.values + mu.values - pbar
    f3 = s.Mt @ x + s.K @ y - s.Ld
    f4 = complementarity_values(u.values, mu.values, a, b, nu, eta)
    return {"F1": f1, "F2": f2, "F3": f3, "F4": f4}


def kkt_residual(problem: ControlProblem, u: P0Field, mu: Optional[P0Field] = None) -> dict:
    """A-posteriori optimality measures of a candidate control.

    Solves the state and adjoint at u and reports max-norms of the gradient
    consistency nu*u + mu - pbar (zero when mu is reconstructed, hence only
    meaningful for caller-supplied mu) and of the complementarity function,
    plus the variational-inequality distance to the pointwise optimizer.
    """
    control = problem.control
    state = problem.solve_state(u)
    p = problem.solve_adjoint(state).p
    pbar = p0_average(p).values
    if mu is None:
        mu = P0Field(u.mesh, pbar - control.nu * u.values)
    a, b = problem.bounds
    consistency = float(np.max(np.abs(control.nu * u.values + mu.values - pbar)))
    c = complementarity_values(u.values, mu.values, a, b, control.nu, control.eta)
    return {
        "consistency": consistency,
        "complementarity": float(np.max(np.abs(c))),
        "vi": variational_inequality_residual(u, p, control),
    }
