"""Manufactured solutions for convergence studies.

Given smooth clamped fields (w, theta), the loads reproducing them follow
from the strong form of the thickness-scaled problem:

    f = -(kappa/t^2) (w'' - theta'),
    g = (12/t^2) ( -(E/12) theta'' - (kappa/t^2)(w' - theta) ).

Both derivations run through sympy, so a family only has to specify the
fields; loads and derivatives come out consistent by construction.

Two families are provided.  sine_family prescribes fields independent of
the thickness, which makes the *data* blow up like 1/t^2 as t shrinks; it
is meant for fixed-thickness convergence rates.  balanced_family instead
prescribes a thickness-dependent rotation theta = W' + (E t^2/(12 kappa))
W''' chosen so that shear force, f, and g are all independent of t; its
discretization errors stay uniformly bounded across thicknesses and it is
the right family for locking studies.

error_norms measures a discrete (w, theta) pair against another one on the
same mesh, or against a family's exact fields and their derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import sympy as sym

from sparsebeam.fem import BeamParams, LoadData
from sparsebeam.meshes import GAUSS_2PT, P1Field, eval_p1

__all__ = ["from_fields", "sine_family", "balanced_family", "error_norms"]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact fields, their derivatives, and the loads that produce them."""

    name: str
    params: BeamParams
    length: float
    w: Callable[[np.ndarray], np.ndarray]
    theta: Callable[[np.ndarray], np.ndarray]
    w_x: Callable[[np.ndarray], np.ndarray]
    theta_x: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    shear: Callable[[np.ndarray], np.ndarray]

    def loads(self) -> LoadData:
        return LoadData(f=self.f, g=self.g)


def _lambdify(expr, x):
    fn = sym.lambdify(x, expr, modules="numpy")

    def call(arr):
        out = fn(np.asarray(arr, dtype=float))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(arr)).copy()

    return call


def from_fields(w_expr, theta_expr, x, params: BeamParams, L: float = 1.0,
                name: str = "custom") -> ManufacturedCase:
    """Derive loads for prescribed sympy fields w(x), theta(x) on (0, L).

    The fields must vanish at x = 0 and x = L (clamped ends); this is
    checked symbolically.
    """
    for expr in (w_expr, theta_expr):
        for endpoint in (0, sym.nsimplify(L, rational=False)):
            val = sym.simplify(expr.subs(x, endpoint))
            if sym.simplify(val) != 0:
                raise ValueError(f"manufactured field does not vanish at x = {endpoint}")
    E, t, kappa = params.E, params.t, params.kappa
    ks = kappa / t**2
    shear_expr = ks * (sym.diff(w_expr, x) - theta_expr)
    f_expr = -sym.diff(shear_expr, x)
    g_expr = (12 / t**2) * (-(E / 12) * sym.diff(theta_expr, x, 2) - shear_expr)
    return ManufacturedCase(
        name=name,
        params=params,
        length=L,
        w=_lambdify(w_expr, x),
        theta=_lambdify(theta_expr, x),
        w_x=_lambdify(sym.diff(w_expr, x), x),
        theta_x=_lambdify(sym.diff(theta_expr, x), x),
        f=_lambdify(f_expr, x),
        g=_lambdify(g_expr, x),
        shear=_lambdify(shear_expr, x),
    )


def sine_family(params: BeamParams, L: float = 1.0) -> ManufacturedCase:
    """w = sin(pi x / L), theta = (pi/L) sin(pi x/L) cos(pi x/L)."""
    x = sym.symbols("x")
    w = sym.sin(sym.pi * x / L)
    theta = (sym.pi / L) * sym.sin(sym.pi * x / L) * sym.cos(sym.pi * x / L)
    return from_fields(w, theta, x, params, L, name="sine")


def balanced_family(params: BeamParams, L: float = 1.0) -> ManufacturedCase:
    """Thickness-robust fields built from W = sin^2(pi x / L).

    With theta = W' + (E t^2 / (12 kappa)) W''' the shear force equals
    -(E/12) W''' identically, giving f = (E/12) W'''' and
    g = -(E^2/(12 kappa)) W''''', both independent of t.
    """
    x = sym.symbols("x")
    W = sym.sin(sym.pi * x / L) ** 2
    E, t, kappa = params.E, params.t, params.kappa
    theta = sym.diff(W, x) + (E * t**2 / (12 * kappa)) * sym.diff(W, x, 3)
    return from_fields(W, theta, x, params, L, name="balanced")


def error_norms(a, b, b_derivatives=None) -> dict:
    """Norms of the difference between field pairs a = (w, theta) and b.

    b may be a pair of P1Fields on the same mesh or a pair of callables;
    in the callable case b_derivatives = (w', theta') enables the H1 norm.
    Returns per-component and combined l2 / h1 / linf values.
    """
    wa, ta = a
    mesh = wa.mesh
    if isinstance(b[0], P1Field):
        if not np.array_equal(b[0].mesh.nodes, mesh.nodes):
            raise ValueError("error_norms needs fields on the same mesh")
        dw = wa.values - b[0].values
        dt = ta.values - b[1].values
        # closed forms on nodal differences (exact for P1)
        out = {}
        for name, d in (("w", dw), ("theta", dt)):
            aa, bb = d[:-1], d[1:]
            l2 = float(np.sqrt(np.sum(mesh.element_sizes * (aa * aa + aa * bb + bb * bb) / 3.0)))
            h1s = float(np.sqrt(np.sum(np.diff(d) ** 2 / mesh.element_sizes)))
            out[f"l2_{name}"] = l2
            out[f"h1_{name}"] = float(np.sqrt(l2 * l2 + h1s * h1s))
            out[f"linf_{name}"] = float(np.max(np.abs(d)))
    else:
        fw, ft = b
        if b_derivatives is None:
            raise ValueError("exact-function comparison needs derivative callables for H1")
        fwp, ftp = b_derivatives
        out = {}
        for name, fld, fn, fnp in (("w", wa, fw, fwp), ("theta", ta, ft, ftp)):
            l2sq = 0.0
            h1ssq = 0.0
            h = mesh.element_sizes
            slope = np.diff(fld.values) / h
            for q, wq in zip(*GAUSS_2PT):
                x = mesh.nodes[:-1] + h * q
                d = eval_p1(fld, x) - np.asarray(fn(x), dtype=float)
                dp = slope - np.asarray(fnp(x), dtype=float)
                l2sq += wq * np.sum(h * d * d)
                h1ssq += wq * np.sum(h * dp * dp)
            nodesd = fld.values - np.asarray(fn(mesh.nodes), dtype=float)
            out[f"l2_{name}"] = float(np.sqrt(l2sq))
            out[f"h1_{name}"] = float(np.sqrt(l2sq + h1ssq))
            out[f"linf_{name}"] = float(np.max(np.abs(nodesd)))
    for k in ("l2", "h1"):
        out[k] = float(np.hypot(out[f"{k}_w"], out[f"{k}_theta"]))
    out["linf"] = float(max(out["linf_w"], out["linf_theta"]))
    return out
