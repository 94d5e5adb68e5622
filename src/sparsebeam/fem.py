"""Finite elements for the static clamped Timoshenko beam.

The thickness-scaled weak form used throughout: find (w, theta) with

    (E/12) int theta' beta'  +  (kappa/t^2) int (w' - theta)(v' - beta)
        =  int (f + u) v  +  (t^2/12) int g beta        for all (v, beta),

discretized with continuous piecewise linears for both w and theta.  Two
schemes are provided: "standard" integrates the shear term exactly and is
known to degrade on thin beams unless the mesh is excessively fine;
"locking_free" integrates the shear term with the one-point midpoint rule,
which is algebraically identical to a mixed method with a piecewise-constant
shear force eliminated elementwise.

The element terms are summed straight into the stiffness band; the sparse
matrices (the stiffness K, the control load B and the P1 mass) are banded,
and scipy's diags and kron assemble them.  Every load is integrated by the
two-point Gauss rule, exact in exact arithmetic for constant, P0 and P1
data; the P0 control enters through B alone.

The adjoint problem of the control problem reuses the same operator; its
load Ld - Mt x, the tracking residual, comes from the optimality system in
sparsebeam.problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import dgemm, dtrsm

from .meshes import GAUSS_2PT, Mesh1D, P0Field, P1Field, point_values

__all__ = [
    "LOCKING_FREE",
    "SCHEMES",
    "BeamParams",
    "LoadData",
    "StateSolution",
    "AdjointSolution",
    "LinearSolveError",
    "assemble_load",
    "control_load_matrix",
    "p1_mass_matrix",
    "BeamOperator",
]

STANDARD = "standard"
LOCKING_FREE = "locking_free"
SCHEMES = (STANDARD, LOCKING_FREE)

ScalarData = Union[float, P0Field, P1Field, Callable[[np.ndarray], np.ndarray]]


class LinearSolveError(RuntimeError):
    """Raised when a direct factorization or solve fails."""


@dataclass(frozen=True)
class BeamParams:
    """Material constants and the thickness; the beam length is the mesh's.

    E : Young modulus.  t : thickness.  k : shear correction factor.
    poisson : Poisson ratio, sets G = E / (2 (1 + poisson)).
    kappa_override : replaces kappa = k * G when given.  E and kappa are
    positive and finite.
    """

    E: float = 1.44e9
    t: float = 0.01
    k: float = 5.0 / 6.0
    poisson: float = 0.35
    kappa_override: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.E < np.inf):
            raise ValueError("E must be positive and finite")
        if not (0 < self.t <= 1):
            raise ValueError("t must lie in (0, 1]")
        if not (0 < self.k < 1):
            raise ValueError("k must lie in (0, 1)")
        if not (0 <= self.poisson < 0.5):
            raise ValueError("poisson must lie in [0, 0.5)")
        if not (0 < self.kappa < np.inf):
            raise ValueError("kappa must be positive and finite")

    @property
    def shear_modulus(self) -> float:
        return self.E / (2.0 * (1.0 + self.poisson))

    @property
    def kappa(self) -> float:
        if self.kappa_override is not None:
            return float(self.kappa_override)
        return self.k * self.shear_modulus


@dataclass(frozen=True)
class LoadData:
    """Problem data: transverse load f, moment load g, deflection target w_d.

    Each entry may be a constant, a callable of x, a P0Field or a P1Field.
    Every entry is integrated by two-point Gauss quadrature, exact for
    constants, P0 fields and P1 fields on the mesh; entries are evaluated
    pointwise, so callables need not vanish at the boundary.
    """

    f: ScalarData = 0.0
    g: ScalarData = 0.0
    w_d: ScalarData = 0.0


@dataclass(frozen=True)
class StateSolution:
    w: P1Field
    theta: P1Field


@dataclass(frozen=True)
class AdjointSolution:
    p: P1Field
    q: P1Field


def _scheme_check(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


# ------------------------------------------------------------- assembly

def _stiffness_band(mesh: Mesh1D, params: BeamParams, scheme: str) -> np.ndarray:
    """Upper band of the stiffness in LAPACK storage, band[3 - d, j] = K[j - d, j].

    The element entries are summed straight into the diagonals: an entry
    takes at most two element terms (those of the elements on either side
    of its node), which sum the same in any order.
    """
    h = mesh.element_sizes
    Eb = params.E / 12.0
    ks = params.kappa / params.t**2
    shear = ks / h  # w'w' entry of each element
    half = 0.5 * ks  # w'theta entries are +-half
    # theta-theta: bending plus the shear mass, exact or one-point rule
    if scheme == STANDARD:
        tt_diag, tt_off = Eb / h + ks * h / 3.0, ks * h / 6.0 - Eb / h
    else:
        tt_diag, tt_off = Eb / h + ks * h / 4.0, ks * h / 4.0 - Eb / h
    band = np.zeros((4, 2 * (mesh.n - 1)))
    w, th = band[:, 0::2], band[:, 1::2]  # columns of w_i and theta_i, i = 1..n-1
    w[3] = shear[:-1] + shear[1:]
    th[3] = tt_diag[:-1] + tt_diag[1:]
    w[2, 1:] = -half  # K[theta_{i-1}, w_i]
    w[1, 1:] = -shear[1:-1]  # K[w_{i-1}, w_i]
    th[1, 1:] = tt_off[1:-1]  # K[theta_{i-1}, theta_i]
    th[0, 1:] = half  # K[w_{i-1}, theta_i]
    return band


def _load_component(data: ScalarData, mesh: Mesh1D) -> np.ndarray:
    """Nodal load vector int data * phi_i for all nodes (boundary included),
    by the two-point Gauss rule on each element."""
    h = mesh.element_sizes
    points, wq = GAUSS_2PT
    fx = point_values(data, mesh, mesh.nodes[:-1, None] + h[:, None] * points[None, :])
    if not np.all(np.isfinite(fx)):
        raise ValueError("load evaluation produced non-finite values")
    out = np.zeros(mesh.n + 1)
    out[:-1] += h * ((fx * (1.0 - points)[None, :]) @ wq)
    out[1:] += h * ((fx * points[None, :]) @ wq)
    return out


def assemble_load(mesh: Mesh1D, params: BeamParams, f: ScalarData, g: ScalarData) -> np.ndarray:
    """Interior load vector: int f v on w-dofs, (t^2/12) int g beta on theta-dofs."""
    Fw = _load_component(f, mesh)
    Fg = _load_component(g, mesh)
    m = 2 * (mesh.n - 1)
    out = np.zeros(m)
    out[0::2] = Fw[1:-1]
    out[1::2] = (params.t**2 / 12.0) * Fg[1:-1]
    return out


def control_load_matrix(mesh: Mesh1D) -> sp.csr_matrix:
    """Sparse map from P0 control values to the interior load vector, h_j/2
    from element j on the w dof of each interior end node, shape (2(n-1), n):
    interior node i is the right end of element i - 1 and the left of i."""
    h = mesh.element_sizes
    ends = sp.diags([h[:-1] / 2.0, h[1:] / 2.0], [0, 1], shape=(mesh.n - 1, mesh.n))
    return sp.kron(ends, [[1.0], [0.0]], format="csr")


def p1_mass_matrix(mesh: Mesh1D) -> sp.csr_matrix:
    """Interior P1 mass matrix (node-indexed, size n-1)."""
    h = mesh.element_sizes
    off = h[1:-1] / 6.0
    return sp.diags([off, h[:-1] / 3.0 + h[1:] / 3.0, off], [-1, 0, 1], format="csr")


# ------------------------------------------------------------- operator

# A right-hand side of at least _BLOCKED_COLUMNS columns is solved by row
# blocks of _ROW_BLOCK rows.  Below it cho_solve_banded is faster: its cost
# per column is about twice the blocked one, but the blocked solve spends a
# fixed 4 BLAS calls per block.  The two cost the same between 48 and 64
# columns at n = 256 and at n = 736 (one BLAS thread, x86-64).
_BLOCKED_COLUMNS = 64
_ROW_BLOCK = 16


def _row_blocks(cb: np.ndarray):
    """Dense row blocks of the upper band Cholesky factor U (LAPACK storage,
    cb[3 - d, j] = U[j - d, j]).  Block k holds rows and columns
    [kS, kS + S) of U, S = _ROW_BLOCK; the last is the leading square of
    its padded block.  corners[k] = U[kS - 3:kS, kS:kS + 3], the only part
    of U coupling block k to the rows above it, lower triangular."""
    S, m = _ROW_BLOCK, cb.shape[1]
    count = -(-m // S)
    band = np.zeros((4, count * S))
    band[3] = 1.0  # the padding is an identity
    band[:, :m] = cb
    i = np.arange(S)
    blocks = np.zeros((count, S, S))
    for d in range(4):
        blocks[:, i[:S - d], i[d:]] = band[3 - d].reshape(count, S)[:, d:]
    corners = np.zeros((count, 3, 3))
    for a in range(3):
        for b in range(a + 1):  # U[kS - 3 + a, kS + b] = cb[a - b, kS + b]
            corners[1:, a, b] = band[a - b, S + b::S]
    return blocks, corners


def _substitute(z: np.ndarray, blocks: np.ndarray, corners: np.ndarray) -> None:
    """Overwrite the C-ordered z with (U^T U)^-1 z, a row block at a time.

    Each block of rows of z takes one dgemm update from the 3 rows next to
    it and one dtrsm with its diagonal block, both on all columns at once
    and in place on the F-ordered transpose z[i0:i1].T, so that U^T z = b
    reads Z U = B and U x = z reads X U^T = Z.
    """
    S, m = _ROW_BLOCK, z.shape[0]
    starts = range(0, m, S)
    for k, i0 in enumerate(starts):  # U^T z = b, top down
        i1 = min(i0 + S, m)
        if k:
            c = min(3, i1 - i0)
            dgemm(-1.0, z[i0 - 3:i0].T, corners[k, :, :c], beta=1.0, c=z[i0:i0 + c].T, overwrite_c=1)
        dtrsm(1.0, blocks[k, :i1 - i0, :i1 - i0], z[i0:i1].T, side=1, overwrite_b=1)
    for k in reversed(range(len(starts))):  # U x = z, bottom up
        i0, i1 = starts[k], min(starts[k] + S, m)
        if i1 < m:
            c = min(3, m - i1)
            dgemm(-1.0, z[i1:i1 + c].T, corners[k + 1, :, :c], beta=1.0, c=z[i1 - 3:i1].T,
                  trans_b=1, overwrite_c=1)
        dtrsm(1.0, blocks[k, :i1 - i0, :i1 - i0], z[i0:i1].T, side=1, trans_a=1, overwrite_b=1)


class BeamOperator:
    """Assembled stiffness, as the upper band K_band and as the CSR matrix K
    that scipy builds from its seven diagonals, with a banded Cholesky
    factorization.  K stores no exact zero: the w-theta entry of each node,
    where the +-kappa/(2t^2) of its two elements cancel, is left out.

    Immutable after construction; reusable across state and adjoint solves
    (the weak form is symmetric so both share one factorization).
    """

    def __init__(self, mesh: Mesh1D, params: BeamParams, scheme: str = LOCKING_FREE):
        _scheme_check(scheme)
        self.mesh = mesh
        self.K_band = band = _stiffness_band(mesh, params, scheme)  # upper band, bandwidth 3
        m = band.shape[1]
        offsets = [d for d in range(-3, 4) if abs(d) < m]  # a 2-element mesh has 2 dofs
        self.K = sp.diags([band[3 - abs(d), abs(d):] for d in offsets], offsets, shape=(m, m),
                          format="csr")
        try:
            self._cb = sla.cholesky_banded(self.K_band, lower=False)
        except sla.LinAlgError as exc:  # pragma: no cover - SPD by construction
            raise LinearSolveError(f"stiffness factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct solve on the Cholesky factor with one step of iterative
        refinement, its residual taken with K.

        A vector, or a matrix of fewer than _BLOCKED_COLUMNS columns, goes
        through LAPACK's banded solve, which substitutes one column at a
        time.  A matrix of more columns, which only the oracles' reduced
        build has, is substituted a row block at a time over all columns
        at once (level-3 dtrsm and small dgemm calls): the solution is
        C-ordered and solved in place, and the refinement adds one scratch
        array of its size, for the residual and then the correction.  Any
        order of substitution has the same componentwise backward-error
        bound, so the two paths agree to roundoff.
        """
        if np.ndim(rhs) < 2 or np.shape(rhs)[1] < _BLOCKED_COLUMNS:
            x = sla.cho_solve_banded((self._cb, False), rhs)
            r = rhs - self.K @ x
            x += sla.cho_solve_banded((self._cb, False), r)
            return x
        factor = _row_blocks(self._cb)
        x = np.array(np.asarray_chkfinite(rhs), dtype=float, order="C")
        _substitute(x, *factor)
        r = self.K @ x
        np.subtract(rhs, r, out=r)
        _substitute(r, *factor)
        x += r
        return x

    def split(self, x: np.ndarray):
        w = P1Field.from_interior(self.mesh, x[0::2])
        th = P1Field.from_interior(self.mesh, x[1::2])
        return w, th


def _interleave(a: P1Field, b: P1Field) -> np.ndarray:
    """Interleaved interior vector of a field pair; inverts BeamOperator.split."""
    return np.column_stack([a.interior, b.interior]).ravel()
