"""Reference implementations kept apart from the package.

``assemble_stiffness`` scatters the per-element 4x4 blocks as COO triplets
and lets scipy sum the duplicates; the package sums the same element
entries straight into the stiffness diagonals, and the tests hold the two
to exact equality.  ``solve_state`` is the one-shot state solve that builds
its own operator and loads, the control integrated exactly as h/2 per end
node, against which ``ControlProblem.solve_state`` and the
manufactured-solution rates are checked.  ``recover_shear`` is the
elementwise shear force of a state.  ``kkt_consistent_scalar``
enumerates the five branches of the pointwise optimality system for one
element, against which the complementarity function's root set is checked.
``pointwise_optimal_control`` is the closed form clip(shrink(pbar, eta)/nu,
a, b), against which the branch classification and the multiplier split
are checked, and ``variational_inequality_residual`` measures a control's
L2 distance to it.  ``residual`` and ``kkt_residual`` measure the
optimality system at a candidate point, with the state and adjoint solved
afresh at its control.  ``pattern_system`` stacks the coupled system of one
branch pattern and its right-hand side from the separately built blocks,
against which the solver's banded pattern solve is checked.
``assemble_mixed_blocks`` builds the blocks of the paper's mixed form with
a P0 shear force, and ``condense_mixed_system`` eliminates that unknown,
against which the locking-free stiffness is checked.
``reduced_operator`` is the oracles' reduced operator T with every solve
refined to long-double accuracy, against which the double build is checked.
``support_runs`` and ``support_measure`` describe a control's support for
the sweep checks;
``p1_interpolant`` and ``l2_norm_p1`` build and measure P1 test fields;
``p1_tracking`` is the closed-form tracking term of a P1 target on the
state's own mesh, against which the cost's quadrature is checked.
"""
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from sparsebeam.control import (
    BRANCH_LOWER,
    BRANCH_NEG,
    BRANCH_POS,
    BRANCH_UPPER,
    ControlParams,
    complementarity_values,
    discretize_bounds,
)
from sparsebeam.fem import (
    LOCKING_FREE,
    STANDARD,
    AdjointSolution,
    BeamOperator,
    BeamParams,
    LoadData,
    StateSolution,
    _interleave,
    assemble_load,
)
from sparsebeam.meshes import Mesh1D, P0Field, P1Field, p0_average
from sparsebeam.problem import ControlProblem


def element_matrices(mesh: Mesh1D, params: BeamParams, scheme: str) -> np.ndarray:
    """Per-element 4x4 blocks in local order (w0, w1, th0, th1)."""
    n = mesh.n
    h = mesh.element_sizes
    Eb = params.E / 12.0
    ks = params.kappa / params.t**2

    Ke = np.zeros((n, 4, 4))
    # bending on theta
    Ke[:, 2, 2] += Eb / h
    Ke[:, 3, 3] += Eb / h
    Ke[:, 2, 3] -= Eb / h
    Ke[:, 3, 2] -= Eb / h
    # shear: w'w', w'theta cross terms (exact under both rules)
    Ke[:, 0, 0] += ks / h
    Ke[:, 1, 1] += ks / h
    Ke[:, 0, 1] -= ks / h
    Ke[:, 1, 0] -= ks / h
    for a, sign in ((0, +0.5), (1, -0.5)):
        for b in (2, 3):
            Ke[:, a, b] += sign * ks
            Ke[:, b, a] += sign * ks
    # shear theta-theta block: exact mass vs one-point midpoint rule
    if scheme == STANDARD:
        Ke[:, 2, 2] += ks * h / 3.0
        Ke[:, 3, 3] += ks * h / 3.0
        Ke[:, 2, 3] += ks * h / 6.0
        Ke[:, 3, 2] += ks * h / 6.0
    else:
        for a in (2, 3):
            for b in (2, 3):
                Ke[:, a, b] += ks * h / 4.0
    return Ke


def assemble_stiffness(mesh: Mesh1D, params: BeamParams, scheme: str = LOCKING_FREE) -> sp.csr_matrix:
    """Stiffness on the interleaved interior dofs (w_1, theta_1, w_2, ...),
    assembled from COO triplets of the element blocks."""
    n = mesh.n
    m = 2 * (n - 1)
    Ke = element_matrices(mesh, params, scheme)

    elems = np.arange(n)
    local_nodes = np.stack([elems, elems + 1, elems, elems + 1], axis=1)  # (n, 4)
    local_comp = np.array([0, 0, 1, 1])
    dofs = 2 * (local_nodes - 1) + local_comp[None, :]
    keep = (local_nodes >= 1) & (local_nodes <= n - 1)

    rows = np.repeat(dofs[:, :, None], 4, axis=2)
    cols = np.repeat(dofs[:, None, :], 4, axis=1)
    mask = np.repeat(keep[:, :, None], 4, axis=2) & np.repeat(keep[:, None, :], 4, axis=1)

    K = sp.coo_matrix(
        (Ke[mask], (rows[mask], cols[mask])), shape=(m, m)
    ).tocsr()
    K.sum_duplicates()
    return K


def assemble_mixed_blocks(mesh: Mesh1D, params: BeamParams):
    """Explicit three-field mixed system blocks over (w, theta; gamma).

    Returns (A, C, Mg):
      A  : bending block on interior (w, theta) dofs,
      C  : coupling int gamma (v' - beta), shape (2(n-1), n),
      Mg : diagonal P0 mass, so the shear equation reads
           (t^2/kappa) Mg gamma = C^T [w; theta].
    """
    n = mesh.n
    h = mesh.element_sizes
    Eb = params.E / 12.0

    main = Eb / h[:-1] + Eb / h[1:]
    off = -Eb / h[1:-1]
    Ath = sp.diags([off, main, off], [-1, 0, 1])
    # bending acts on the theta dofs only: Ath on the odd interleaved dofs
    A = sp.kron(Ath, [[0.0, 0.0], [0.0, 1.0]], format="csr")

    # element j couples to its interior end nodes: the w-test gives
    # int_j gamma v' = gamma_j (v(x_{j+1}) - v(x_j)), the theta-test
    # -int_j gamma beta = -gamma_j h_j/2 at each end node
    jumps = sp.diags([1.0, -1.0], [0, 1], shape=(n - 1, n))
    ends = sp.diags([h[:-1] / 2.0, h[1:] / 2.0], [0, 1], shape=(n - 1, n))
    C = (sp.kron(jumps, [[1.0], [0.0]]) - sp.kron(ends, [[0.0], [1.0]])).tocsr()
    Mg = sp.diags(h).tocsr()
    return A, C, Mg


def condense_mixed_system(mesh: Mesh1D, params: BeamParams) -> np.ndarray:
    """Eliminate the P0 shear unknown; equals the locking_free stiffness."""
    A, C, Mg = assemble_mixed_blocks(mesh, params)
    scale = params.kappa / params.t**2
    Minv = sp.diags(scale / mesh.element_sizes)
    return (A + C @ Minv @ C.T).toarray()


def solve_state(
    mesh: Mesh1D,
    params: BeamParams,
    loads: LoadData,
    u: Optional[P0Field] = None,
    scheme: str = LOCKING_FREE,
) -> StateSolution:
    """Solve the beam problem under load f + u and moment load g."""
    op = BeamOperator(mesh, params, scheme)
    rhs = assemble_load(mesh, params, loads.f, loads.g)
    if u is not None:
        # int u v exactly: h_j/2 u_j on the w-dof of each interior end node
        # of element j, added after f so a callable f keeps its quadrature
        half = u.values * mesh.element_sizes / 2.0
        control = np.zeros(2 * (mesh.n - 1))
        control[0::2] = half[:-1] + half[1:]
        rhs = rhs + control
    return StateSolution(*op.split(op.solve(rhs)))


def recover_shear(mesh: Mesh1D, params: BeamParams, w: P1Field, theta: P1Field) -> P0Field:
    """Elementwise shear force gamma = (kappa/t^2) (dw/dx - mean(theta))."""
    dw = np.diff(w.values) / mesh.element_sizes
    tbar = 0.5 * (theta.values[:-1] + theta.values[1:])
    return P0Field(mesh, (params.kappa / params.t**2) * (dw - tbar))


def kkt_consistent_scalar(u: float, mu: float, a: float, b: float, eta: float,
                          tol: float = 0.0) -> bool:
    """Branch-enumerated scalar test: does (u, mu) satisfy the pointwise system?

    Enumerates the five branches (u=0, u in (0,b), u=b, u in (a,0), u=a).
    """
    if u < a - tol or u > b + tol:
        return False
    if abs(u) <= tol:
        return abs(mu) <= eta + tol
    if u > 0:
        if abs(u - b) <= tol:
            return mu >= eta - tol
        return abs(mu - eta) <= tol
    if abs(u - a) <= tol:
        return mu <= -eta + tol
    return abs(mu + eta) <= tol


def pointwise_optimal_control(p_bar, params: ControlParams, mesh: Optional[Mesh1D] = None):
    """u = clip(shrink(pbar, eta)/nu, a, b) elementwise, with the soft
    shrinkage written out.

    p_bar may be a P0Field (returns a P0Field) or a bare array (returns an
    array; constant bounds only in that case).
    """
    def optimum(z, a, b):
        z = np.asarray(z, dtype=float)
        shrunk = np.sign(z) * np.maximum(np.abs(z) - params.eta, 0.0)
        return np.clip(shrunk / params.nu, a, b)

    if isinstance(p_bar, P0Field):
        return P0Field(p_bar.mesh, optimum(p_bar.values, *discretize_bounds(params, p_bar.mesh)))
    if mesh is not None:
        return optimum(p_bar, *discretize_bounds(params, mesh))
    if not (np.isscalar(params.a) and np.isscalar(params.b)):
        raise ValueError("array input needs a mesh for non-constant bounds")
    return optimum(p_bar, params.a, params.b)


def variational_inequality_residual(u: P0Field, p: P1Field, params: ControlParams) -> float:
    """L2 distance between u and the pointwise optimal control of pbar."""
    a, b = discretize_bounds(params, u.mesh)
    slack = 1e-12 * (1.0 + np.max(np.abs(u.values)))
    if np.any(u.values < a - slack) or np.any(u.values > b + slack):
        raise ValueError("control is not admissible")
    ustar = pointwise_optimal_control(p0_average(p), params)
    d = u.values - ustar.values
    return float(np.sqrt(np.sum(u.mesh.element_sizes * d * d)))


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
    x = _interleave(state.w, state.theta)
    y = _interleave(adjoint.p, adjoint.q)
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


def pattern_system(problem: ControlProblem, branches: np.ndarray):
    """The linear system of one branch pattern, unknowns stacked as (state
    dofs, adjoint dofs, free controls): [[K, 0, -B_f], [Mt, K, 0],
    [0, -Avg_f, nu I]], or [[K, 0], [Mt, K]] when no element is free.  Bound
    and zero controls load the state rows, and a free control's row solves
    nu*u - Avg y = -eta on the positive branch and +eta on the negative one.
    Returns (A, rhs, free)."""
    s, (a, b) = problem.system, problem.bounds
    branches = np.asarray(branches)
    free = np.nonzero((branches == BRANCH_POS) | (branches == BRANCH_NEG))[0]
    u_fix = np.select([branches == BRANCH_UPPER, branches == BRANCH_LOWER], [b, a], 0.0)
    f_ctl = problem.control.eta * np.where(branches[free] == BRANCH_POS, -1.0, 1.0)
    rhs = np.concatenate([s.Lf + s.B @ u_fix, s.Ld, f_ctl])
    if not free.size:
        return sp.bmat([[s.K, None], [s.Mt, s.K]], format="csc"), rhs, free
    A = sp.bmat([[s.K, None, -s.B[:, free]],
                 [s.Mt, s.K, None],
                 [None, -s.Avg[free, :], problem.control.nu * sp.identity(free.size)]],
                format="csc")
    return A, rhs, free


def reduced_operator(problem: ControlProblem, steps: int = 6) -> np.ndarray:
    """T = Avg K^-1 Mt K^-1 B in long double.  Each solve starts at zero and
    takes `steps` refinement steps: the residual and the iterate in long
    double, the correction by the double Cholesky factor.  So the result is
    T of the double K, Mt, B and Avg, less rounded than any double build: at
    n = 300, t = 1e-3, 6 and 10 steps differ by 2e-11 of max|T|, a thousandth
    of the double build's error."""
    s = problem.system
    cb = (s.operator._cb, False)
    K = s.K.astype(np.longdouble)

    def solve(rhs):
        x = np.zeros_like(rhs)
        for _ in range(steps):
            x += sla.cho_solve_banded(cb, (rhs - K @ x).astype(float))
        return x

    x = solve(s.B.astype(np.longdouble).toarray())
    return np.asarray(s.Avg.astype(np.longdouble) @ solve(s.Mt.astype(np.longdouble) @ x))


def support_runs(u: P0Field) -> int:
    """Number of maximal contiguous element runs where u is nonzero."""
    mask = u.values != 0.0
    if not np.any(mask):
        return 0
    flips = np.diff(mask.astype(int))
    return int(np.sum(flips == 1) + (1 if mask[0] else 0))


def support_measure(u: P0Field) -> float:
    return float(np.sum(u.mesh.element_sizes[u.values != 0.0]))


def p1_interpolant(mesh: Mesh1D, fn) -> P1Field:
    """Nodal interpolation; boundary entries are stamped to exact zeros."""
    v = np.asarray([float(fn(x)) for x in mesh.nodes])
    v[0] = 0.0
    v[-1] = 0.0
    return P1Field(mesh, v)


def p1_tracking(w: P1Field, w_d: P1Field) -> float:
    """1/2 ||w - w_d||^2 for two P1 fields on one mesh, element by element:
    int over an element of (linear)^2 = h*(a^2 + a*b + b^2)/3."""
    if not np.array_equal(w.mesh.nodes, w_d.mesh.nodes):
        raise ValueError("the closed form needs both fields on one mesh")
    d = w.values - w_d.values
    a, b = d[:-1], d[1:]
    return 0.5 * float(np.sum(w.mesh.element_sizes * (a * a + a * b + b * b) / 3.0))


def l2_norm_p1(v: P1Field) -> float:
    # exact: int over element of (linear)^2 = h*(a^2 + a*b + b^2)/3
    a = v.values[:-1]
    b = v.values[1:]
    return float(np.sqrt(np.sum(v.mesh.element_sizes * (a * a + a * b + b * b) / 3.0)))
