"""Shared problem factories for the test suite.

The "toy" family is a clamped unit beam with a smooth transverse load and a
small tracking target, sized so every solver regime (unconstrained, sparse,
bound-active) is reachable by scaling the sparsity weight.
"""
import numpy as np
import pytest
from hypothesis import settings

from sparsebeam.control import ControlParams
from sparsebeam.fem import BeamParams, LoadData
from sparsebeam.meshes import P0Field, build_uniform_mesh
from sparsebeam.problem import ControlProblem

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def toy_problem(n=25, nu=1e-6, eta=0.0, bound=15.0, t=0.01, E=1.0,
                scheme="locking_free"):
    """Smooth single-load instance used throughout the solver tests."""
    mesh = build_uniform_mesh(n, 1.0)
    beam = BeamParams(E=E, t=t, kappa_override=1.0)
    loads = LoadData(f=lambda x: 40.0 * np.sin(2.0 * np.pi * x),
                     w_d=lambda x: 0.01 * np.sin(np.pi * x))
    control = ControlParams(nu=nu, eta=eta, a=-bound, b=bound)
    return ControlProblem(mesh=mesh, beam=beam, loads=loads, control=control,
                          scheme=scheme)


def zero_problem(n=12, nu=1e-4, eta=0.0, bound=1.0):
    """All data zero: the optimal control is exactly zero."""
    mesh = build_uniform_mesh(n, 1.0)
    beam = BeamParams(E=1.0, t=0.01, kappa_override=1.0)
    control = ControlParams(nu=nu, eta=eta, a=-bound, b=bound)
    return ControlProblem(mesh=mesh, beam=beam, loads=LoadData(), control=control)


def eta_threshold(problem):
    """Smallest sparsity weight that forces u = 0 (max |pbar| at u = 0)."""
    pbar = problem.averaged_adjoint(problem.solve_state(P0Field.zeros(problem.mesh)))
    return float(np.max(np.abs(pbar.values)))


@pytest.fixture
def toy():
    return toy_problem()


@pytest.fixture
def toy_moderate():
    # nu large enough that no roundoff amplification is in play
    return toy_problem(nu=1e-4)
