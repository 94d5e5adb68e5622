"""ControlProblem wiring: conventions, caching, derived quantities."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_problem, zero_problem
from reference import kkt_residual, p1_interpolant, solve_state
from sparsebeam.control import ControlParams
from sparsebeam.fem import BeamOperator, BeamParams, LoadData, assemble_load
from sparsebeam.meshes import (
    Mesh1D,
    P0Field,
    P1Field,
    build_uniform_mesh,
    coarsen,
    eval_p1,
    l2_diff_p1,
    p0_average,
    point_values,
    restrict_p0,
)
from sparsebeam.problem import ControlProblem


def test_bounds_validated_at_construction():
    mesh = build_uniform_mesh(4)
    with pytest.raises(ValueError):
        ControlProblem(mesh=mesh, beam=BeamParams(), loads=LoadData(),
                       control=ControlParams(nu=1.0, eta=0.0, a=lambda x: x - 0.5))


def test_callable_bounds_are_projected_once_per_problem():
    calls = []

    def lower(x):
        calls.append(x.shape)
        return -1.0 - x

    prob = ControlProblem(build_uniform_mesh(4), BeamParams(), LoadData(),
                          ControlParams(nu=1.0, eta=0.0, a=lower))
    prob.bounds
    assert len(calls) == 1
    prob.with_control(eta=1.0).bounds
    assert len(calls) == 2


@pytest.fixture
def operator_builds(monkeypatch):
    """Count BeamOperator constructions."""
    calls = []
    init = BeamOperator.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BeamOperator, "__init__", counted)
    return calls


def test_operator_is_cached(operator_builds):
    prob = toy_problem(n=8)
    assert not hasattr(prob, "operator")
    prob.solve_adjoint(prob.solve_state())
    prob.cost(P0Field.constant(prob.mesh, 1.0))
    assert len(operator_builds) == 1


def test_system_is_cached_and_shares_the_stiffness():
    prob = toy_problem(n=8)
    assert prob.system is prob.system
    assert prob.system.K is prob.system.operator.K


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("scheme", ["locking_free", "standard"])
def test_row_sum_norms_equal_scipy_row_sums(graded, scheme):
    # the norms scale the residual history, so they must not move by a bit
    prob = replace(toy_problem(n=37, t=1e-3, scheme=scheme), mesh=_mesh(graded, n=37))
    s = prob.system
    for A, norm in ((s.K, s.K_norm), (s.Mt, s.Mt_norm), (s.B, s.B_norm)):
        assert norm == float(np.max(np.abs(A).sum(axis=1)))
    assert np.all(s.Mt.getnnz(axis=1)[1::2] == 0)  # the cost tracks no rotation


def _mesh(graded, n=12):
    return Mesh1D(np.linspace(0.0, 1.0, n + 1) ** (2.0 if graded else 1.0))


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("load", ["callable", "p0"])
def test_state_matches_module_level_solve(graded, load):
    # K x = Lf + B u on the cached blocks is the module-level assembly bit for bit
    mesh = _mesh(graded)
    f = (lambda x: 40.0 * np.sin(2.0 * np.pi * x)) if load == "callable" \
        else P0Field(mesh, np.cos(3.0 * mesh.midpoints))
    prob = ControlProblem(mesh, BeamParams(E=1.0, t=0.01, kappa_override=1.0),
                          LoadData(f=f, g=lambda x: x), ControlParams(nu=1.0, eta=0.0))
    u = P0Field(mesh, 1.5 + np.arange(mesh.n) % 3)
    for control in (None, u):
        st = prob.solve_state(control)
        st2 = solve_state(prob.mesh, prob.beam, prob.loads, u=control, scheme=prob.scheme)
        for name in ("w", "theta"):
            assert np.array_equal(getattr(st, name).values, getattr(st2, name).values)


def test_problems_compare_and_hash():
    a, b = zero_problem(), zero_problem()
    assert a == b and hash(a) == hash(b)
    assert a != a.with_control(eta=1.0)
    p0 = replace(a, loads=LoadData(f=P0Field.zeros(a.mesh)))
    assert p0 != a and len({a, b, p0}) == 2


def test_state_rejects_control_on_another_mesh():
    prob = toy_problem(n=12)
    with pytest.raises(ValueError, match="different mesh"):
        prob.solve_state(P0Field.constant(_mesh(True), 1.0))


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("scheme", ["locking_free", "standard"])
@pytest.mark.parametrize("kind", ["scalar", "callable", "p0", "p1"])
def test_adjoint_uses_descent_sign(kind, scheme, graded):
    # the descent adjoint Ld - Mt x is the negative of the plain tracking
    # adjoint, whose load int (w - w_d) v is integrated here at the Gauss
    # points of the target.  The two loads differ by an ulp, which the
    # operator amplifies by its conditioning: up to 4.6e-11 at t = 1e-2 and
    # 8.9e-5 at t = 1e-5 (n = 200), so the check stays on a thick beam
    mesh = _mesh(graded)
    fn = lambda x: 0.01 * np.sin(np.pi * x)  # noqa: E731
    target = {"scalar": 0.01, "callable": fn, "p0": P0Field(mesh, fn(mesh.midpoints)),
              "p1": p1_interpolant(mesh, fn)}[kind]
    prob = ControlProblem(mesh, BeamParams(E=1.0, t=0.1, kappa_override=1.0),
                          LoadData(f=lambda x: 40.0 * np.sin(2.0 * np.pi * x), w_d=target),
                          ControlParams(nu=1.0, eta=0.0), scheme=scheme)
    st = prob.solve_state(P0Field.constant(mesh, 1.0))

    def tracking(target, field):
        return lambda x: eval_p1(field, x) - point_values(target, mesh, x)

    plain = prob.system.operator.solve(assemble_load(mesh, prob.beam, tracking(target, st.w), 0.0))
    adj = prob.solve_adjoint(st)
    for field, ref in ((adj.p, plain[0::2]), (adj.q, plain[1::2])):
        assert np.max(np.abs(field.interior + ref)) <= 1e-12 * np.max(np.abs(ref))


def beam_problem(loads):
    return ControlProblem(build_uniform_mesh(10), BeamParams(E=1.0, t=0.01, kappa_override=1.0),
                          loads, ControlParams(nu=1.0, eta=0.0))


class TestAdjointSolve:
    def test_reversed_residual_negates(self):
        prob = beam_problem(LoadData(f=lambda x: np.sin(np.pi * x), w_d=0.0))
        st = prob.solve_state()
        # the target 2w turns the residual w_d - w = -w into +w
        doubled = replace(prob, loads=LoadData(f=prob.loads.f, w_d=P1Field(prob.mesh, 2.0 * st.w.values)))
        assert np.allclose(doubled.solve_adjoint(st).p.values, -prob.solve_adjoint(st).p.values,
                           atol=1e-15)

    def test_matched_target_zeroes_adjoint(self):
        st = beam_problem(LoadData(f=1.0)).solve_state()
        matched = beam_problem(LoadData(f=1.0, w_d=st.w))
        adj = matched.solve_adjoint(st)
        assert np.max(np.abs(adj.p.values)) < 1e-14


def test_averaged_adjoint_matches_p0_average():
    prob = toy_problem(n=10)
    st = prob.solve_state()
    assert np.array_equal(prob.averaged_adjoint(st).values,
                          p0_average(prob.solve_adjoint(st).p).values)


def test_cost_delegates_to_control_layer():
    prob = toy_problem(n=10, eta=1e-5)
    u = P0Field.constant(prob.mesh, 2.0)
    br = prob.cost(u)
    assert br.l1_term == pytest.approx(1e-5 * 2.0)
    assert br.l2_term == pytest.approx(0.5 * prob.control.nu * 4.0)
    assert br.total > 0


def test_cost_of_a_target_on_another_mesh():
    # a P1 target from the uniform mesh, read on a graded mesh of the same n
    # and on a coarse mesh nested in it; l2_diff_p1 integrates exactly on the
    # common refinement, so it is the fine-grid reference
    target_mesh = build_uniform_mesh(64)
    w_d = p1_interpolant(target_mesh, lambda x: 0.1 * np.sin(np.pi * x))
    prob = ControlProblem(_mesh(True, n=64), BeamParams(E=1.0, t=1e-2),
                          LoadData(f=lambda x: 100.0 * np.sin(3.0 * np.pi * x), w_d=w_d),
                          ControlParams(nu=1e-6, eta=1e-5))
    for p, rel in ((prob, 1e-5), (prob.restricted(coarsen(prob.mesh, 16)), 1e-2)):
        # two Gauss points per element cannot follow the target's kinks
        # inside it, so the four-element coarse mesh gets a looser tolerance
        u = P0Field(p.mesh, np.cos(np.pi * p.mesh.midpoints))
        st = p.solve_state(u)
        assert p.cost(u, st).tracking == pytest.approx(0.5 * l2_diff_p1(st.w, w_d) ** 2, rel=rel)


def test_optimality_residual_zero_data():
    prob = zero_problem()
    assert kkt_residual(prob, P0Field.zeros(prob.mesh))["vi"] == 0.0


def test_with_control_and_with_mesh_rebuild():
    prob = toy_problem(n=8)
    finer = replace(prob, mesh=build_uniform_mesh(16))
    assert finer.mesh.n == 16
    assert finer.beam is prob.beam
    changed = prob.with_control(eta=0.125)
    assert changed.control.eta == 0.125
    assert changed.control.nu == prob.control.nu
    assert prob.control.eta == 0.0  # original untouched


def test_with_control_shares_control_independent_caches(operator_builds):
    p = toy_problem(n=8, bound=2.0)
    s = p.system
    assert np.all(p.bounds[1] == 2.0)
    q = p.with_control(eta=0.125, a=-1.0, b=1.0)
    assert q.system is s
    assert np.all(q.bounds[0] == -1.0) and np.all(q.bounds[1] == 1.0)
    assert np.all(p.bounds[0] == -2.0)
    q.with_control(eta=0.25).solve_state()
    assert len(operator_builds) == 1
    finer = replace(p, mesh=build_uniform_mesh(16))
    assert finer.system is not s
    assert len(operator_builds) == 2
    # an unbuilt cache stays unbuilt until it is read
    fresh = toy_problem(n=8).with_control(eta=0.5)
    assert "system" not in fresh.__dict__ and len(operator_builds) == 2


def test_restricted_problem_restricts_p0_data_only():
    mesh = _mesh(True, n=40)
    coarse = coarsen(mesh, 16)
    f = P0Field(mesh, np.cos(3.0 * mesh.midpoints))
    w_d = p1_interpolant(mesh, lambda x: x * (1.0 - x))
    g = lambda x: np.sin(x)  # noqa: E731
    a = P0Field(mesh, -1.0 - mesh.midpoints)
    prob = ControlProblem(mesh, BeamParams(E=1.0, t=0.01), LoadData(f=f, g=g, w_d=w_d),
                          ControlParams(nu=1e-4, eta=1e-3, a=a, b=2.0))
    c = prob.restricted(coarse)
    assert c.mesh is coarse and c.beam is prob.beam and c.scheme == prob.scheme
    assert np.array_equal(c.loads.f.values, restrict_p0(f, coarse).values)
    assert np.array_equal(c.control.a.values, restrict_p0(a, coarse).values)
    assert c.loads.g is g and c.loads.w_d is w_d
    assert c.control.b == 2.0 and (c.control.nu, c.control.eta) == (1e-4, 1e-3)
    assert c.bounds[0].shape == (coarse.n,) and np.all(c.bounds[0] <= -1.0)
    assert c.system.B.shape == (2 * (coarse.n - 1), coarse.n)
