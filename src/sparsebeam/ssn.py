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
OptimalitySystem.  _PatternSolver solves each pattern system, in the band
layout that _SLOTS, _U, _X and _Y describe, by one LAPACK banded LU of the
row-equilibrated system and one refinement step; a pattern with no free
element decouples into two solves with the stiffness operator.

One active-set iteration serves the main loop, the reseed's proximal
stages and its probes, and all of them draw on one budget of _MAX_ITER
pattern solves per level.  The pattern map is deterministic, so a run
stops at the first of three events: a fixed point (its solve depends on
the pattern alone, so its residual is final), its cap of pattern solves,
or a recurring pattern (a cycle, which can never settle).  The main loop
starts from z = 0, or from the nested seed below.  With a very small L2
weight it can overshoot the bounds and cycle; it is then reseeded once
from a proximal-point continuation, whose first weight is ten times the
secant of the reduced operator along the last two iterates (at least nu)
and whose first center is the warm start u0 when one is given.  Below the
nesting size a warm start skips the main loop: the continuation starts at
c = u0 clipped to the box, from z = pbar(c), with ten times the secant
|pbar(c) - pbar(0)| / |c| (at least nu) as its first weight, for two
operator solves and no pattern solve.  Along a sweep the cold loop would
cycle first, since the previous control's adjoint average lies inside the
new weight's zero band.  Where u = 0 is optimal (max|pbar(0)| <= eta), or
c = 0, the main loop runs instead; it reaches u = 0 in one pattern solve.
A one-solve probe at the true weight follows only a stage that settled on
its first pattern at a weight no larger than the secant: above it the
proximal term dominates the reduced operator, the stage's pattern is set
by its center, and a probe does not settle.  The reseed ends on a probe
that has settled at the true weight; that probe's solve is the loop's last
iterate.  The solve returns the last pattern solve, the one its stop
tested, so stop_reason describes the returned point; a spent budget
returns the last solve with stop_reason "max_iter".

On a mesh of at least _NEST_MIN elements the solve is seeded by nested
iteration.  It first solves the same problem on the mesh of every 16th
node (P0 data restricted to h-weighted means), through ssn_solve, so a
coarse mesh that is still large nests again.  The fine main loop then
classifies its first pattern from z = pbar of the coarse adjoint p,
interpolated linearly at the fine nodes (exact at the coarse nodes, which
are fine nodes) and averaged per fine element; without a u0 the coarse
control, each fine element taking the value of the coarse element that
holds it, is the reseed's first center.  The discrete controls and
adjoints converge at the optimal order uniformly in the thickness, and
semismooth Newton is mesh-independent (Hintermueller and Ulbrich, A
mesh-independence result for semismooth Newton methods, Math. Program.
2004), so the interpolated adjoint classifies the fine pattern: at
nu = 1e-6 the fine loop ends after one pattern solve, its first pattern
already the fixed point.  The seed changes only where the iteration
starts.  A pattern's solve depends on the pattern alone, so a seeded solve
that settles on the cold solve's pattern returns the same control, bit for
bit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

import numpy as np
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
)
from .fem import AdjointSolution, LinearSolveError, StateSolution
from .meshes import P0Field, P1Field, coarsen, p0_average, restrict_p0
from .problem import ControlProblem

__all__ = ["SSNResult", "ssn_solve"]


@dataclass
class SSNResult:
    """The last pattern solve: its control clipped to the box, its state and
    adjoint, and mu = pbar - nu*u from its adjoint average.  stop_reason is
    "converged" or "repeat_above_tol" at a fixed point whose residual meets
    _TOL or misses it.  On "max_iter", the budget ran out first, and it is
    the last pattern solve, a main-loop iterate or the reseed's last stage
    or probe.  converged reads stop_reason, the one record of how the solve
    ended.

    iterations counts the pattern solves on the problem's own mesh, main
    loop and reseed together, at most _MAX_ITER; coarse_iterations counts
    those of all the coarse levels of a nested solve, 0 below the nesting
    size.  residual_history is that of the problem's own mesh: the main
    loop's solves and the settled probe's, so a warm start that settles in
    the reseed records one solve, and one that spends the budget there
    none."""
    u: P0Field
    mu: P0Field
    state: StateSolution
    adjoint: AdjointSolution
    multipliers: MultiplierState
    stop_reason: str
    iterations: int
    coarse_iterations: int = 0
    residual_history: List[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# A fixed point stops "converged" if its residual is at most _TOL, else
# "repeat_above_tol": a label only, it never changes the iteration.
_TOL = 1e-10
_MAX_ITER = 850  # pattern solves per level: 50 for the main loop plus 800 for the reseed

# Band layout of a pattern system: element k holds _SLOTS slots, its control
# u_k and the unknowns (w, theta, p, q) of its right end node, in the order
# u_0, node 1, ..., u_{n-1}, node n; the equations follow the same order.  The
# clamped end, node n, and a control off the free branches keep their slots
# as unit rows and columns with no coupling, so they drop out of the system
# exactly, LU does no elimination work on them, and no pattern re-indexes
# the band.  All blocks are element-local, so from n = 3 on, at any thickness
# or grading, the widths, the extreme diagonals of the entries, are KL = 7,
# reached by the tracking mass coupling a node's adjoint rows to the previous
# node's state, and KU = 6, by the stiffness coupling to the next node.
_SLOTS = 5
_U, _X, _Y = 0, 1, 3  # slot of the control, of the state pair and of the adjoint pair
# elements per pass of the band writer, an 860 kB slice of the storage: at n = 1e5,
# 512 to 2,048 measured alike and 4,096 and up slower (Xeon, 2 MB of L2 per core)
_CHUNK = 1024

# Nested iteration: a solve on at least _NEST_MIN elements first solves the
# problem on the mesh of every _NEST_K-th node and classifies its first
# pattern from that solve.  On the sine loads at nu = 1e-6 the nested solve
# overtook the cold one between 1024 and 2048 elements; one power of two
# above that it won on every load measured (crossover table in ROADMAP.md,
# measured with the older seed that injected the coarse z into each fine element).
_NEST_MIN = 4096
_NEST_K = 16

# Proximal reseed: the weight tau of its stages starts at _TAU_FIRST times
# the secant of the reduced operator T (at least nu) and follows each
# stage's outcome.
_TAU_FIRST = 10.0  # the first stage's proximal term dominates T, so its map contracts
_STAGE_CAP = 8  # solves of one stage: twice the longest settled stage of the shipped sweep
_TAU_UP = 4.0  # after a stage that cycles or spends its cap: back towards contraction
_TAU_DOWN = 0.25  # after a settled stage: towards the true weight


def _diagonal(apart: int, row_slot: int, col_slot: int) -> int:
    """Band diagonal (row - column) from slot col_slot to slot row_slot, apart elements on."""
    return _SLOTS * apart + row_slot - col_slot


class _PatternSolver:
    """The pattern systems of one solve, each by one LAPACK banded LU.

    The blocks come from the problem's cached OptimalitySystem, and the
    layout above fixes every index.  The LAPACK band storage is allocated
    here, once per solve, and every pattern with a free element is written
    straight into it, _CHUNK elements at a time: the chunk's columns are
    zeroed, its pattern-independent part, [[K, 0], [Mt, K]] on the state and
    adjoint slots, is written from a table of views of the upper bands of K
    and Mt and of the row scales, one strided product per diagonal and
    column parity, and then its control rows and columns from a second
    table: -B_f, -Avg_f and nu on free elements, a unit diagonal elsewhere.

    The stiffness carries the 1/t^2 shear scale, so its rows differ in size
    by orders of magnitude.  The band is row-equilibrated as it is written:
    the state row and the adjoint row of each interior dof are scaled by
    2^-e, e the binary exponent of the largest |entry| in that dof's
    stiffness row, so the stiffness parts of the scaled rows lie in [1/2, 1)
    in max-norm.  A power of two scales exactly, so the scaled and unscaled
    systems have the same solution; the control rows keep scale 1, as do the
    clamped end's rows and the row of a dof without stiffness.  On the
    equilibrated rows one step of iterative refinement on the same factor,
    its residual taken from the unscaled system, brings the componentwise
    backward error close to roundoff; on the unscaled rows two steps left it
    orders of magnitude above (Skeel 1980; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 12).
    """

    def __init__(self, problem: ControlProblem):
        s = self.sys = problem.system
        self.a, self.b = problem.bounds
        self.nu, self.eta = problem.control.nu, problem.control.eta
        K_band, n = s.operator.K_band, problem.mesh.n
        # row scales 2^-e of the stiffness rows, 1 for rows without entries:
        # row r holds column r of the upper band and K[r, r + e] = band[3 - e, r + e]
        k_max = np.abs(K_band).max(axis=0)
        for e in (1, 2, 3):
            np.maximum(k_max[:-e], np.abs(K_band[3 - e, e:]), out=k_max[:-e])
        d = np.ldexp(1.0, -np.frexp(k_max)[1])
        self.scale = self._to_band(d, d, np.ones(n), end=1.0)
        scale = self.scale.reshape(n, _SLOTS)
        # the blocks, symmetric of bandwidth 3 like K: one table row per
        # diagonal e and column parity p with entries A[c + e, c] in the
        # state or adjoint rows and columns, c = 2k + p from element k0 on,
        # at the same slot and band row in every element; it holds k0, the
        # block's band row (a view of K_band, which the operator keeps, or a
        # copy of the few rows of Mt read), the row scales (a view of scale)
        # and a view of the storage
        Mt_band = np.zeros_like(K_band)
        for e in (0, 2):
            Mt_band[3 - e, e:] = s.Mt.diagonal(e)
        blocks = []
        for upper, rows, cols in ((K_band, _X, _X), (K_band, _Y, _Y), (Mt_band, _Y, _X)):
            for e, p in itertools.product(range(-3, 4), (0, 1)):
                apart, r = divmod(p + e, 2)  # row c + e: dof r of the node apart elements on
                k0 = max(0, -apart)  # the first element whose row c + e exists
                src = upper[3 + e, 2 * k0 + p::2] if e <= 0 else upper[3 - e, 2 * k0 + p + e::2]
                if src.any():  # not w and theta two nodes apart
                    blocks.append((_diagonal(apart, rows + r, cols + p), cols + p, k0,
                                   src if upper is K_band else src.copy(),
                                   scale[k0 + apart:k0 + apart + src.size, rows + r]))
        # the control entries, -B on a node's scaled w row in a control's column
        # and -Avg in that control's row on the node's p column; the CSR data
        # hold node i's entry with element i + j, j = 0 then 1, and a table row
        # holds the diagonal, the column slot, the entries by column element and
        # j, the control's element minus the column's
        self.controls = []
        for j in (0, 1):
            b, avg = -s.B.data[j::2] * d[0::2], -s.Avg.data[j::2]
            self.controls += [(_diagonal(-j, _X, _U), _U, np.pad(b, (j, 1 - j)), 0),
                              (_diagonal(j, _U, _Y), _Y, np.pad(avg, (0, 1)), j)]
        diagonals = [0] + [row[0] for row in blocks + self.controls]
        self.kl, self.ku = max(diagonals), -min(diagonals)
        self.diag = self.kl + self.ku  # band row of the main diagonal in LAPACK band storage
        self.ab = np.empty((2 * self.kl + self.ku + 1, _SLOTS * n), order="F")
        # the storage element by element: [k, s, band row] is slot s of element k
        self.elements = self.ab.T.reshape(n, _SLOTS, -1)
        self.table = [(k0, src, rs, self.elements[k0:k0 + src.size, slot, self.diag + dg])
                      for dg, slot, k0, src, rs in blocks]

    def _fill(self, is_free: np.ndarray, nu: float) -> np.ndarray:
        ab, el, diag = self.ab, self.elements, self.diag
        free = np.append(is_free, False)  # the clamped end holds no control
        for k0 in range(0, len(el), _CHUNK):
            k1 = min(k0 + _CHUNK, len(el))
            ab[:, _SLOTS * k0:_SLOTS * k1] = 0.0
            for first, src, d, out in self.table:
                lo, hi = max(k0 - first, 0), k1 - first
                np.multiply(src[lo:hi], d[lo:hi], out=out[lo:hi])
            el[k0:k1, _U, diag] = np.where(free[k0:k1], nu, 1.0)
            for dg, slot, entries, j in self.controls:
                el[k0:k1, slot, diag + dg] = np.where(free[k0 + j:k1 + j], entries[k0:k1], 0.0)
        el[-1, _X:, diag] = 1.0  # the clamped end
        return ab

    def _to_band(self, fx, fy, fu, end=0.0):
        z = np.full((len(fu), _SLOTS), end)  # end: the clamped end's slots
        z[:, _U] = fu
        z[:-1, _X:_X + 2] = fx.reshape(-1, 2)
        z[:-1, _Y:_Y + 2] = fy.reshape(-1, 2)
        return z.reshape(-1)

    def _from_band(self, z):
        z = z.reshape(-1, _SLOTS)
        return z[:-1, _X:_X + 2].ravel(), z[:-1, _Y:_Y + 2].ravel(), z[:, _U]

    def _apply(self, is_free, nu, z):
        """Product of the band matrix with a band-ordered vector."""
        x, y, u = self._from_band(z)
        s = self.sys
        return self._to_band(s.K @ x - s.B @ np.where(is_free, u, 0.0),
                             s.Mt @ x + s.K @ y,
                             np.where(is_free, nu * u - s.Avg @ y, u))

    def solve(self, branches: np.ndarray, nu: Optional[float] = None,
              shift: Optional[np.ndarray] = None):
        """Solve the coupled system of one branch pattern exactly.

        Bound and zero controls are substituted into the state right-hand
        side, and the control rows solve nu*u - Avg y = -eta*sign on the free
        set.  Eliminating the state and adjoint blocks reduces the system to
        nu*I + T[free, free] with T the dense reduced operator of the oracle
        module.  A shift vector adds to the control-row right-hand side;
        together with an inflated nu it realizes the proximally centered
        subproblems of the reseeding path.  Returns (x, y, u).
        """
        s = self.sys
        nu = self.nu if nu is None else nu
        is_free = (branches == BRANCH_POS) | (branches == BRANCH_NEG)
        u = fixed_control(branches, self.a, self.b)
        f_state = s.Lf + s.B @ u
        if not is_free.any():
            x = s.operator.solve(f_state)
            return x, s.operator.solve(s.Ld - s.Mt @ x), u
        f_ctl = -self.eta * np.where(branches == BRANCH_POS, 1.0, -1.0)
        if shift is not None:
            f_ctl = f_ctl + shift
        lu, piv, info = dgbtrf(self._fill(is_free, nu), self.kl, self.ku, overwrite_ab=1)
        if info != 0:
            raise LinearSolveError(f"pattern factorization failed (dgbtrf info {info})")

        def lu_solve(r):
            z, info = dgbtrs(lu, self.kl, self.ku, self.scale * r, piv, overwrite_b=1)
            if info != 0:
                raise LinearSolveError(f"pattern solve failed (dgbtrs info {info})")
            return z

        rhs = self._to_band(f_state, s.Ld, np.where(is_free, f_ctl, 0.0))
        z = lu_solve(rhs)
        z += lu_solve(rhs - self._apply(is_free, nu, z))
        x, y, u_band = self._from_band(z)
        u[is_free] = u_band[is_free]
        return x, y, u


class _Run(NamedTuple):
    z: np.ndarray  # adjoint average of the last solve
    solved: tuple  # the last pattern's solve (x, y, u)
    solves: int
    stop: str  # "fixed", "cap" or "cycle"


def _active_set(ps: _PatternSolver, z: np.ndarray, nu: float, cap: int,
                shift: Optional[np.ndarray] = None, visit: Optional[Callable] = None) -> _Run:
    """The active-set iteration at weight nu from the classification point z.

    Classifies z + shift, solves the pattern, takes z from the adjoint
    average of the solve and reclassifies, until a fixed point, the cap of
    pattern solves or a recurring pattern.  With a shift it solves the
    proximally centered subproblem of a reseed stage.  visit(solved, z) is
    called after every solve.
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
            visit(solved, z)
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
        return _Run(z, solved, solves, stop)


def _continuation_seed(ps: _PatternSolver, z: np.ndarray, tau: float,
                       c: np.ndarray, budget: int):
    """Reach the true weight by a proximal-point continuation.

    Each stage solves the problem plus tau/2 * ||u - c||^2 centered at c:
    the true weight's sparsity threshold and box, with the classification
    point shifted by tau*c and the quadratic weight inflated by tau.  The
    first center is the caller's (a warm start, the prolonged coarse
    control, or the pointwise map of the cycling iterate), later ones the
    previous stage's solution.  Centering keeps the stage solutions
    converging to the true minimizer as tau shrinks; each settled stage is
    an exact proximal-point step, which cannot increase the distance to the
    minimizer.  The active-set map is contractive once tau dominates the
    reduced operator along the iterates, and near the minimizer it
    terminates finitely even at tau = 0, so tau is quartered after a
    settled stage and quadrupled, without a cap, after one that cycles or
    spends its _STAGE_CAP solves.  A one-solve probe at the true weight,
    which tests whether the plain iteration now terminates, follows only a
    settled stage of one solve (its first classification already its fixed
    point) whose tau is at most the secant, the first tau over _TAU_FIRST.
    Above the secant the proximal term dominates T along the iterates, so
    the stage's pattern is set by its center, not by the true weight, and
    a probe there does not settle; a failed probe changes nothing but the
    solves spent.  The reseed spends at most budget pattern solves: a stage
    is capped at _STAGE_CAP or the solves left, and a probe runs only if
    one is left.  Returns the pattern solves spent and the last run: the
    settled probe's, or, once the budget is spent, the last stage's or
    probe's with its stop read as "cap".
    """
    total, secant = 0, tau / _TAU_FIRST
    while True:
        run = _active_set(ps, z, ps.nu + tau, min(_STAGE_CAP, budget - total), shift=tau * c)
        total += run.solves
        if run.stop != "fixed":
            tau *= _TAU_UP
        else:
            z, c = run.z, run.solved[2]
            if run.solves == 1 and tau <= secant and total < budget:
                run = _active_set(ps, z, ps.nu, 1)
                total += 1
                if run.stop == "fixed":
                    return total, run
            tau *= _TAU_DOWN
        if total == budget:
            return total, run._replace(stop="cap")


def ssn_solve(problem: ControlProblem, u0: Optional[P0Field] = None) -> SSNResult:
    """Run the active-set iteration to the finite-termination fixed point,
    seeded from a coarse solve on at least _NEST_MIN elements, and return
    its last pattern solve (see SSNResult).

    The warm start u0 must live on the problem's mesh and be finite once
    clipped to the box (so no NaN); the solve reads it only clipped, as the
    first center of the reseed.  Below the nesting size the solve starts in
    that reseed (unless u = 0 is optimal or u0 clips to zero), whose first
    proximal stage classifies from pbar(u0).  No classification at the true
    weight starts from u0: along a sweep, the previous control's adjoint
    average lies inside the new weight's zero band.  A nested solve
    restricts the clipped u0 to the coarse mesh for the coarse solve, and
    centers the fine reseed at it if the fine loop cycles."""
    mesh, control = problem.mesh, problem.control
    nu, eta = control.nu, control.eta
    a, b = problem.bounds
    if u0 is not None:
        if u0.mesh != mesh:
            raise ValueError("u0 lives on a different mesh")
        u0 = np.clip(u0.values, a, b)  # from here on the clipped values
        if not np.all(np.isfinite(u0)):
            raise ValueError("u0 must be finite once clipped to the box")
    z0, coarse_iterations, center = np.zeros(mesh.n), 0, u0
    if mesh.n >= _NEST_MIN:
        coarse = coarsen(mesh, _NEST_K)
        seed = ssn_solve(problem.restricted(coarse),
                         None if u0 is None else restrict_p0(P0Field(mesh, u0), coarse))
        coarse_iterations = seed.iterations + seed.coarse_iterations
        # the coarse adjoint, linear between the coarse nodes, averaged per fine element
        z0 = p0_average(P1Field(mesh, np.interp(mesh.nodes, coarse.nodes,
                                                seed.adjoint.p.values))).values
        if center is None:
            owner = np.arange(mesh.n) // _NEST_K  # the coarse element holding each fine one
            center = seed.u.values[owner]
    ps, s = _PatternSolver(problem), problem.system

    residual_history: List[float] = []
    latest = []  # (u, z) of the last two iterates, for the reseed's secant

    def record(solved, z):
        x, y, u = solved
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

    start, iterations = None, 0  # the reseed's first z, tau and center
    if u0 is not None and mesh.n < _NEST_MIN:
        # warm first: the reseed starts at c = u0, its tau from the secant
        # pbar(c) - pbar(0) = -T c of the reduced operator (two operator
        # solves of two columns), unless u = 0 is optimal, which the main
        # loop reaches in one solve, or c = 0 gives no direction
        x = s.operator.solve(np.column_stack([s.Lf, s.Lf + s.B @ u0]))
        pbar0, pbar_c = (s.Avg @ s.operator.solve(s.Ld[:, None] - s.Mt @ x)).T
        if np.max(np.abs(pbar0)) > eta and u0.any():
            secant = np.linalg.norm(pbar_c - pbar0) / np.linalg.norm(u0)
            start = (pbar_c, _TAU_FIRST * max(secant, nu), u0)
    if start is None:
        run = _active_set(ps, z0, nu, _MAX_ITER, visit=record)
        iterations = run.solves
        if run.stop == "cycle":
            # reseed once from a proximal continuation.  Since z = pbar(u),
            # dz = -T du for the reduced operator T, so the secant |dz|/|du|
            # of the two latest iterates measures T along the direction the
            # iteration oscillates in and sets the first tau
            (u_prev, z_prev), (u_last, z) = latest
            du = np.linalg.norm(u_last - u_prev)
            secant = np.linalg.norm(z - z_prev) / du if du > 0 else 0.0
            if center is None:
                center = shrink(z, eta) / nu
            start = (z, _TAU_FIRST * max(secant, nu), np.clip(center, a, b))
    if start is not None:
        # the reseed gets the solves the main loop left; a cycle stops that
        # loop before its cap, so at least one is left
        extra, run = _continuation_seed(ps, *start, _MAX_ITER - iterations)
        iterations += extra
        if run.stop == "fixed":
            # the settled probe's solve, counted by the reseed, is the next iterate
            record(run.solved, run.z)

    if run.stop == "fixed":
        # a pattern's solve depends on the pattern alone, so its residual is final
        stop_reason = "converged" if residual_history[-1] <= _TOL else "repeat_above_tol"
    else:  # a cycle always reseeds, so a run that did not settle spent the budget
        stop_reason = "max_iter"

    x, y, u = run.solved
    u_final = np.clip(u, a, b)
    u_field = P0Field(mesh, u_final)
    mu_field = P0Field(mesh, run.z - nu * u_final)
    return SSNResult(
        u=u_field,
        mu=mu_field,
        state=StateSolution(*s.operator.split(x)),
        adjoint=AdjointSolution(*s.operator.split(y)),
        multipliers=reconstruct_multipliers(u_field, mu_field, control),
        stop_reason=stop_reason,
        iterations=iterations,
        coarse_iterations=coarse_iterations,
        residual_history=residual_history,
    )

