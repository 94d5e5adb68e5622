"""One-dimensional meshes, nodal/elementwise fields, quadrature, and norms.

Displacement-type quantities live in the space of continuous piecewise-linear
functions vanishing at both ends of the interval (P1Field); controls, shear
forces and multipliers live in the space of piecewise constants (P0Field).

A nested coarse mesh keeps every k-th node of a mesh (coarsen); P0 fields
are restricted to it by h-weighted means (restrict_p0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh1D",
    "P1Field",
    "P0Field",
    "GAUSS_2PT",
    "build_uniform_mesh",
    "coarsen",
    "restrict_p0",
    "pi_h",
    "p0_average",
    "eval_p1",
    "point_values",
    "l2_diff_p0",
    "l2_diff_p1",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of a, so the caller's array stays its own."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Partition 0 = x_0 < x_1 < ... < x_n = L of the beam axis.  Two meshes
    are equal when their nodes are.

    Parameters
    ----------
    nodes : ndarray
        Strictly increasing, finite node coordinates, nodes[0] == 0.

    Attributes
    ----------
    element_sizes : ndarray
        h_j = x_j - x_{j-1}, one entry per element.
    h : float
        Largest element size.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _readonly(self.nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least 3 nodes (2 elements)")
        if nodes[0] != 0.0:
            raise ValueError("mesh must start at 0")
        sizes = np.diff(nodes)
        if not np.all(sizes > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        if not np.isfinite(nodes[-1]):
            raise ValueError("mesh nodes must be finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_sizes", _readonly(sizes))

    def __eq__(self, other):
        if not isinstance(other, Mesh1D):
            return NotImplemented
        return self is other or np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        # the first node is 0.0 or -0.0, which compare equal: leave it out
        return hash(self.nodes[1:].tobytes())

    @property
    def element_sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def n(self) -> int:
        """Number of elements."""
        return self.nodes.size - 1

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def h(self) -> float:
        return float(self._sizes.max())

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])


def build_uniform_mesh(n: int, L: float = 1.0) -> Mesh1D:
    """Uniform mesh with n elements on (0, L)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not (L > 0):
        raise ValueError("L must be positive")
    return Mesh1D(np.linspace(0.0, float(L), int(n) + 1))


def coarsen(mesh: Mesh1D, k: int) -> Mesh1D:
    """The nested mesh of every k-th node of mesh, plus its last node.

    Coarse element J holds the fine elements k*J to k*J + k - 1; when k does
    not divide n the last coarse element holds the n mod k remaining ones.
    """
    return Mesh1D(np.append(mesh.nodes[:-1:k], mesh.nodes[-1]))


@dataclass(frozen=True, eq=False)
class P1Field:
    """Continuous piecewise-linear field with homogeneous Dirichlet values.

    values has one entry per node; values[0] and values[-1] must be exactly 0.
    Fields compare and hash by identity.
    """

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.mesh.n + 1,):
            raise ValueError("P1Field needs one value per node")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError("P1Field boundary values must be exactly zero")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, mesh: Mesh1D) -> "P1Field":
        return cls(mesh, np.zeros(mesh.n + 1))

    @classmethod
    def from_interior(cls, mesh: Mesh1D, interior: np.ndarray) -> "P1Field":
        v = np.zeros(mesh.n + 1)
        v[1:-1] = interior
        return cls(mesh, v)

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]


@dataclass(frozen=True, eq=False)
class P0Field:
    """Piecewise-constant field, one value per element, compared by identity."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        if v.shape != (self.mesh.n,):
            raise ValueError("P0Field needs one value per element")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, mesh: Mesh1D) -> "P0Field":
        return cls(mesh, np.zeros(mesh.n))

    @classmethod
    def constant(cls, mesh: Mesh1D, c: float) -> "P0Field":
        return cls(mesh, np.full(mesh.n, float(c)))


# two-point Gauss rule on the reference element [0, 1]: (points, weights),
# the weights summing to 1
GAUSS_2PT = (
    _readonly([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]),
    _readonly([0.5, 0.5]),
)


def pi_h(u, mesh: Mesh1D) -> P0Field:
    """Elementwise-mean quasi-interpolation onto piecewise constants.

    u may be a P0Field on the same mesh (identity), a scalar, or a callable;
    callables are averaged with two-point Gauss quadrature.  As for loads
    (point_values), a callable is called once, on the (n, 2) array of
    points, and its value must broadcast to that shape.
    """
    if isinstance(u, P0Field):
        if u.mesh != mesh:
            raise ValueError("P0Field lives on a different mesh")
        return P0Field(mesh, u.values)
    if np.isscalar(u):
        return P0Field.constant(mesh, float(u))
    points, weights = GAUSS_2PT
    x = mesh.nodes[:-1, None] + mesh.element_sizes[:, None] * points[None, :]
    vals = point_values(u, mesh, x)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function evaluation produced non-finite values")
    return P0Field(mesh, vals @ weights)


def p0_average(v: P1Field) -> P0Field:
    """Elementwise mean of a P1 field (equals its midpoint values)."""
    w = v.values
    return P0Field(v.mesh, 0.5 * (w[:-1] + w[1:]))


def restrict_p0(u: P0Field, coarse: Mesh1D) -> P0Field:
    """The h-weighted mean of u over the fine elements of each element of a
    coarse mesh whose nodes are nodes of u's mesh, so each coarse element
    keeps u's integral to roundoff (and a field of one sign keeps it)."""
    fine = u.mesh
    starts = np.searchsorted(fine.nodes, coarse.nodes)
    if starts[-1] != fine.n or not np.array_equal(fine.nodes[starts], coarse.nodes):
        raise ValueError("coarse mesh is not nested in the field's mesh")
    h = fine.element_sizes
    return P0Field(coarse, np.add.reduceat(h * u.values, starts[:-1])
                   / np.add.reduceat(h, starts[:-1]))


def eval_p1(v: P1Field, x):
    """Point evaluation of a P1 field; x may be scalar or array in [0, L]."""
    xa = np.asarray(x, dtype=float)
    L = v.mesh.length
    if np.any(xa < -1e-12 * L) or np.any(xa > L * (1 + 1e-12)):
        raise ValueError("evaluation point outside [0, L]")
    out = np.interp(np.clip(xa, 0.0, L), v.mesh.nodes, v.values)
    return float(out) if np.isscalar(x) else out


def point_values(data, mesh: Mesh1D, x: np.ndarray) -> np.ndarray:
    """Values of problem data at points x whose row j lies inside element j.

    data may be a constant, a vectorized callable of x, a P0Field on mesh,
    or a P1Field (evaluated on its own mesh).
    """
    if isinstance(data, P0Field):
        if data.mesh != mesh:
            raise ValueError("P0 data lives on a different mesh")
        v = data.values
        return np.broadcast_to(v.reshape(v.shape + (1,) * (x.ndim - 1)), x.shape)
    if isinstance(data, P1Field):
        return eval_p1(data, x)
    if np.isscalar(data):
        return np.full(x.shape, float(data))
    return np.broadcast_to(np.asarray(data(x), dtype=float), x.shape)


# ---------------------------------------------------------------- norms

def _l2_norm_p0(u: P0Field) -> float:
    return float(np.sqrt(np.sum(u.mesh.element_sizes * u.values**2)))


# ------------------------------------------ cross-mesh comparisons

def _overlap_partition(mesh_a: Mesh1D, mesh_b: Mesh1D):
    """Common refinement of two meshes on the same interval.

    Returns (left, right, ia, ib): subinterval endpoints plus the element
    index of each subinterval in either mesh.
    """
    if abs(mesh_a.length - mesh_b.length) > 1e-12 * max(mesh_a.length, 1.0):
        raise ValueError("meshes cover different intervals")
    pts = np.union1d(mesh_a.nodes, mesh_b.nodes)
    left, right = pts[:-1], pts[1:]
    mid = 0.5 * (left + right)
    ia = np.clip(np.searchsorted(mesh_a.nodes, mid) - 1, 0, mesh_a.n - 1)
    ib = np.clip(np.searchsorted(mesh_b.nodes, mid) - 1, 0, mesh_b.n - 1)
    return left, right, ia, ib


def l2_diff_p0(a: P0Field, b: P0Field) -> float:
    """L2 norm of the difference of two P0 fields on possibly different meshes."""
    left, right, ia, ib = _overlap_partition(a.mesh, b.mesh)
    d = a.values[ia] - b.values[ib]
    return float(np.sqrt(np.sum((right - left) * d * d)))


def l2_diff_p1(a: P1Field, b: P1Field) -> float:
    """L2 norm of the difference of two P1 fields on possibly different meshes."""
    left, right, _, _ = _overlap_partition(a.mesh, b.mesh)
    # difference is linear on each subinterval: 2-point Gauss is exact
    acc = 0.0
    for q, wq in zip(*GAUSS_2PT):
        x = left + (right - left) * q
        d = eval_p1(a, x) - eval_p1(b, x)
        acc += wq * np.sum((right - left) * d * d)
    return float(np.sqrt(acc))
