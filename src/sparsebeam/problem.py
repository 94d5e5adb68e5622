"""Container for one control problem instance.

Bundles the mesh, beam parameters, loads, and control parameters with one
cached build, the OptimalitySystem: the factored stiffness operator and the
blocks of the discrete optimality system.  They are sparse matrices and
vectors only; the oracles' dense reduced operator is built and kept in
sparsebeam.oracles.  Every state and adjoint solve goes through that build,
whose blocks fix the two conventions the optimality layer depends on:

* the adjoint load is the descent residual Ld - Mt x = (w_d - w_h, v), so
  that the averaged adjoint pbar enters the optimality system as
  nu*u + mu = pbar with mu a (sub)gradient of the nonsmooth term at a
  *minimizer* of the cost;
* the cost tracks the deflection only: Mt and Ld vanish on the theta rows,
  and the blocks are the exact discrete optimality system of cost().
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .control import ControlParams, CostBreakdown, cost as control_cost, discretize_bounds
from .fem import (
    LOCKING_FREE,
    AdjointSolution,
    BeamOperator,
    BeamParams,
    LoadData,
    StateSolution,
    _interleave,
    _scheme_check,
    assemble_load,
    control_load_matrix,
    p1_mass_matrix,
)
from .meshes import Mesh1D, P0Field, p0_average, restrict_p0

__all__ = ["ControlProblem"]


class OptimalitySystem:
    """Pattern-independent blocks of the discrete optimality system

        K x - B u = Lf,    Mt x + K y = Ld,    nu*u + mu = Avg y,

    on the interleaved interior dofs x = (w, theta) and y = (p, q).  B maps
    a P0 control to its deflection load, Avg takes the elementwise mean of
    the adjoint deflection (B = Avg^T diag(h), so Avg is B's pattern with
    every entry 1/2), and Mt is the deflection tracking mass, zero on the
    theta rows.  K_norm, Mt_norm and B_norm are max row sums, which scale
    backward-error residuals.  The system builds the problem's one
    BeamOperator, whose factorization every state and adjoint solve shares.
    """

    def __init__(self, problem: ControlProblem):
        mesh, beam, loads = problem.mesh, problem.beam, problem.loads
        self.operator = BeamOperator(mesh, beam, problem.scheme)
        self.K = self.operator.K
        self.B = control_load_matrix(mesh)
        self.Avg = self.B.T.tocsr()
        self.Avg.data[:] = 0.5
        self.Mt = sp.kron(p1_mass_matrix(mesh), np.diag([1.0, 0.0]), format="csr")
        self.Lf = assemble_load(mesh, beam, loads.f, loads.g)
        self.Ld = assemble_load(mesh, beam, loads.w_d, 0.0)
        self.K_norm, self.Mt_norm, self.B_norm = (
            float(abs(A).sum(axis=1).max()) for A in (self.K, self.Mt, self.B))


@dataclass(frozen=True)
class ControlProblem:
    mesh: Mesh1D
    beam: BeamParams
    loads: LoadData
    control: ControlParams
    scheme: str = LOCKING_FREE

    def __post_init__(self):
        _scheme_check(self.scheme)
        self.bounds  # validates a <= 0 <= b

    @cached_property
    def system(self) -> OptimalitySystem:
        return OptimalitySystem(self)

    @cached_property
    def bounds(self):
        return discretize_bounds(self.control, self.mesh)

    def solve_state(self, u: Optional[P0Field] = None) -> StateSolution:
        """The state under load f + u and moment load g: K x = Lf + B u."""
        if u is not None and u.mesh != self.mesh:
            raise ValueError("u lives on a different mesh")
        s = self.system
        x = s.operator.solve(s.Lf if u is None else s.Lf + s.B @ u.values)
        return StateSolution(*s.operator.split(x))

    def solve_adjoint(self, state: StateSolution) -> AdjointSolution:
        """The descent adjoint K y = Ld - Mt x, its load int (w_d - w) v."""
        s = self.system
        y = s.operator.solve(s.Ld - s.Mt @ _interleave(state.w, state.theta))
        return AdjointSolution(*s.operator.split(y))

    def averaged_adjoint(self, state: StateSolution) -> P0Field:
        return p0_average(self.solve_adjoint(state).p)

    def cost(self, u: P0Field, state: Optional[StateSolution] = None) -> CostBreakdown:
        if state is None:
            state = self.solve_state(u)
        return control_cost(u, state.w, self.loads.w_d, self.control)

    def restricted(self, coarse: Mesh1D) -> "ControlProblem":
        """A copy on a coarse mesh nested in this one.  P0 loads and bounds
        are restricted to their h-weighted means over each coarse element;
        constants, callables and P1 fields are evaluated on any mesh and
        pass through unchanged."""
        def restrict(data):
            return restrict_p0(data, coarse) if isinstance(data, P0Field) else data

        loads = replace(self.loads, **{f.name: restrict(getattr(self.loads, f.name))
                                       for f in fields(self.loads)})
        control = replace(self.control, a=restrict(self.control.a), b=restrict(self.control.b))
        return replace(self, mesh=coarse, loads=loads, control=control)

    def with_control(self, **changes) -> "ControlProblem":
        """A copy with changed control parameters.  The optimality system,
        operator included, does not depend on the control, so the copy shares
        it once built; the bounds are rebuilt."""
        new = replace(self, control=replace(self.control, **changes))
        if "system" in self.__dict__:
            new.__dict__["system"] = self.system
        return new
