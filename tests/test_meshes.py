"""Mesh containers, projections, and norm helpers."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import l2_norm_p1, p1_interpolant
from sparsebeam.control import ControlParams, discretize_bounds
from sparsebeam.meshes import (
    GAUSS_2PT,
    Mesh1D,
    P0Field,
    P1Field,
    _l2_norm_p0,
    build_uniform_mesh,
    coarsen,
    eval_p1,
    l2_diff_p0,
    l2_diff_p1,
    p0_average,
    pi_h,
    point_values,
    restrict_p0,
)


class TestMesh1D:
    def test_uniform_mesh_basics(self):
        mesh = build_uniform_mesh(8, 2.0)
        assert mesh.n == 8
        assert mesh.length == 2.0
        assert mesh.h == pytest.approx(0.25)
        assert np.allclose(mesh.element_sizes, 0.25)
        assert np.allclose(mesh.midpoints, np.arange(8) * 0.25 + 0.125)
        assert mesh.element_sizes.sum() == pytest.approx(2.0)

    def test_nonuniform_mesh(self):
        mesh = Mesh1D(np.array([0.0, 0.1, 0.5, 1.0]))
        assert mesh.n == 3
        assert np.allclose(mesh.element_sizes, [0.1, 0.4, 0.5])
        assert mesh.h == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh1D(np.array([0.0, 1.0]))  # too few nodes
        with pytest.raises(ValueError):
            Mesh1D(np.array([0.5, 1.0, 2.0]))  # does not start at 0
        with pytest.raises(ValueError):
            Mesh1D(np.array([0.0, 0.5, 0.5, 1.0]))  # not strictly increasing
        with pytest.raises(ValueError):
            build_uniform_mesh(1)
        with pytest.raises(ValueError):
            build_uniform_mesh(4, -1.0)

    def test_infinite_node_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Mesh1D(np.array([0.0, 0.5, 1.0, np.inf]))

    def test_equality_and_hash_by_nodes(self):
        a, b = build_uniform_mesh(4), build_uniform_mesh(4)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != build_uniform_mesh(5)
        assert a != Mesh1D(np.linspace(0.0, 1.0, 5) ** 1.5)
        assert a != "mesh"
        signed = Mesh1D(np.array([-0.0, 0.5, 1.0]))  # -0.0 == 0.0 passes as the first node
        assert signed == build_uniform_mesh(2) and hash(signed) == hash(build_uniform_mesh(2))

    def test_nodes_are_readonly(self):
        mesh = build_uniform_mesh(4)
        with pytest.raises(ValueError):
            mesh.nodes[0] = 1.0


class TestFields:
    def test_field_copies_the_callers_array(self):
        # the field is read-only, the array it was built from stays the caller's
        mesh = build_uniform_mesh(4)
        v = np.arange(4.0)
        u = P0Field(mesh, v)
        v[:] = -1.0
        assert v.flags.writeable
        assert np.array_equal(u.values, np.arange(4.0)) and not u.values.flags.writeable

    def test_fields_compare_and_hash_by_identity(self):
        mesh = build_uniform_mesh(4)
        u, v, w = P0Field.zeros(mesh), P0Field.zeros(mesh), P1Field.zeros(mesh)
        assert u == u and u != v and w != P1Field.zeros(mesh)
        assert len({u, v, w}) == 3

    def test_p1_shape_and_boundary(self):
        mesh = build_uniform_mesh(4)
        with pytest.raises(ValueError):
            P1Field(mesh, np.zeros(4))
        with pytest.raises(ValueError):
            P1Field(mesh, np.ones(5))  # nonzero boundary
        v = P1Field.from_interior(mesh, np.array([1.0, 2.0, 3.0]))
        assert v.values[0] == 0.0 and v.values[-1] == 0.0
        assert np.allclose(v.interior, [1.0, 2.0, 3.0])

    def test_p1_from_callable_stamps_boundary(self):
        mesh = build_uniform_mesh(4)
        v = p1_interpolant(mesh, lambda x: np.cos(x))  # cos(0) = 1
        assert v.values[0] == 0.0 and v.values[-1] == 0.0
        assert v.values[1] == pytest.approx(np.cos(0.25))

    def test_p0_shape(self):
        mesh = build_uniform_mesh(4)
        with pytest.raises(ValueError):
            P0Field(mesh, np.zeros(5))
        c = P0Field.constant(mesh, 2.5)
        assert np.allclose(c.values, 2.5)


class TestQuadrature:
    def test_reference_weights_sum_to_one(self):
        points, weights = GAUSS_2PT
        assert weights.sum() == pytest.approx(1.0)
        assert not points.flags.writeable and not weights.flags.writeable

    def test_gauss_2pt_integrates_cubics(self):
        # degree-3 exactness on [0, 1]
        val = sum(w * p**3 for p, w in zip(*GAUSS_2PT))
        assert val == pytest.approx(0.25, abs=1e-14)


class TestProjection:
    def test_pi_h_of_scalar_and_p0(self):
        mesh = build_uniform_mesh(6)
        assert np.allclose(pi_h(3.0, mesh).values, 3.0)
        u = P0Field(mesh, np.arange(6.0))
        assert np.array_equal(pi_h(u, mesh).values, u.values)

    def test_pi_h_of_linear_is_midpoint_value(self):
        mesh = build_uniform_mesh(5)
        proj = pi_h(lambda x: 2.0 * x + 1.0, mesh)
        assert np.allclose(proj.values, 2.0 * mesh.midpoints + 1.0)

    def test_pi_h_rejects_foreign_mesh_and_nonfinite(self):
        mesh = build_uniform_mesh(4)
        other = build_uniform_mesh(5)
        with pytest.raises(ValueError):
            pi_h(P0Field.zeros(other), mesh)
        with pytest.raises(ValueError):
            pi_h(lambda x: np.full_like(x, np.inf), mesh)

    def test_p0_average_is_midpoint_of_p1(self):
        mesh = build_uniform_mesh(4)
        v = P1Field.from_interior(mesh, np.array([1.0, 3.0, 2.0]))
        assert np.allclose(p0_average(v).values, [0.5, 2.0, 2.5, 1.0])

    def test_pi_h_averages_one_call_at_the_gauss_points(self):
        # the projection is the Gauss rule applied to the callable's value on
        # the (n, 2) array of points, bit for bit, from a single call
        mesh = Mesh1D(np.array([0.0, 0.1, 0.35, 0.7, 1.0]))
        calls = []

        def fn(x):
            calls.append(x.shape)
            return np.exp(x) * np.sin(3.0 * x)

        points, weights = GAUSS_2PT
        x = mesh.nodes[:-1, None] + mesh.element_sizes[:, None] * points[None, :]
        expected = fn(x) @ weights
        calls.clear()
        assert np.array_equal(pi_h(fn, mesh).values, expected)
        assert calls == [(4, 2)]

    @pytest.mark.parametrize("fn", [
        lambda x: x.mean(axis=-1) if np.ndim(x) else x,  # one value per element
        lambda x: 1.0 if x < 0.5 else 2.0,  # scalar points only
    ], ids=["per_element_shape", "scalar_only"])
    def test_pi_h_rejects_callables_loads_reject(self, fn):
        # pi_h evaluates callables as loads are evaluated, once on the (n, 2)
        # points, so a bound and a load accept the same callables
        mesh = build_uniform_mesh(4)
        calls = []

        def counted(x):
            calls.append(1)
            return fn(x)

        with pytest.raises(ValueError):
            pi_h(counted, mesh)
        assert len(calls) == 1
        with pytest.raises(ValueError):
            discretize_bounds(ControlParams(nu=1.0, eta=0.0, b=counted), mesh)
        x = mesh.nodes[:-1, None] + mesh.element_sizes[:, None] * GAUSS_2PT[0][None, :]
        with pytest.raises(ValueError):
            point_values(counted, mesh, x)

    @given(st.integers(min_value=2, max_value=40), st.floats(-5, 5), st.floats(-5, 5))
    def test_pi_h_preserves_affine_mean(self, n, c0, c1):
        mesh = build_uniform_mesh(n)
        proj = pi_h(lambda x: c0 + c1 * x, mesh)
        assert np.allclose(proj.values, c0 + c1 * mesh.midpoints, atol=1e-12)


class TestEval:
    def test_eval_p1_interpolates(self):
        mesh = build_uniform_mesh(4)
        v = P1Field.from_interior(mesh, np.array([1.0, 2.0, 1.0]))
        assert eval_p1(v, 0.25) == pytest.approx(1.0)
        assert eval_p1(v, 0.375) == pytest.approx(1.5)
        assert np.allclose(eval_p1(v, np.array([0.0, 1.0])), 0.0)
        with pytest.raises(ValueError):
            eval_p1(v, 1.5)


class TestNorms:
    def test_p0_norms_exact_for_constants(self):
        mesh = build_uniform_mesh(7, 2.0)
        u = P0Field.constant(mesh, -3.0)
        assert _l2_norm_p0(u) == pytest.approx(3.0 * np.sqrt(2.0))

    def test_p1_norms_exact_for_hat(self):
        # single hat of height 1 on two elements of size 1/2:
        # L2^2 = 2 * (1/2)*(1/3) = 1/3
        mesh = build_uniform_mesh(2)
        v = P1Field.from_interior(mesh, np.array([1.0]))
        assert l2_norm_p1(v) == pytest.approx(np.sqrt(1.0 / 3.0))

    def test_l2_norm_p1_converges_to_smooth_value(self):
        mesh = build_uniform_mesh(400)
        v = p1_interpolant(mesh, lambda x: np.sin(np.pi * x))
        assert l2_norm_p1(v) == pytest.approx(np.sqrt(0.5), rel=1e-4)


class TestCrossMeshDiffs:
    def test_same_mesh_reduces_to_plain_norm(self):
        mesh = build_uniform_mesh(6)
        a = P0Field(mesh, np.arange(6.0))
        b = P0Field(mesh, np.arange(6.0)[::-1].copy())
        d = P0Field(mesh, a.values - b.values)
        assert l2_diff_p0(a, b) == pytest.approx(_l2_norm_p0(d))

    def test_nested_meshes_exact_for_p0(self):
        coarse = build_uniform_mesh(4)
        fine = build_uniform_mesh(8)
        a = P0Field(coarse, np.array([1.0, 2.0, 3.0, 4.0]))
        b = P0Field(fine, np.repeat(a.values, 2))
        assert l2_diff_p0(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_non_nested_p1(self):
        # identical linear interpolants on unrelated meshes differ by zero
        m1 = build_uniform_mesh(3)
        m2 = build_uniform_mesh(5)
        f = lambda x: np.where(x < 0.5, x, 1.0 - x) * 2.0  # hat at 0.5
        a = p1_interpolant(m1, f)
        b = p1_interpolant(m2, f)
        # both meshes contain the kink only if 0.5 is a node: m1 does not,
        # so just check symmetry and positivity here
        assert l2_diff_p1(a, b) == pytest.approx(l2_diff_p1(b, a))
        assert l2_diff_p1(a, a) == pytest.approx(0.0, abs=1e-14)

    def test_interval_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l2_diff_p0(P0Field.zeros(build_uniform_mesh(4, 1.0)),
                       P0Field.zeros(build_uniform_mesh(4, 2.0)))


def _fine_mesh(n, graded):
    return Mesh1D(np.linspace(0.0, 1.0, n + 1) ** (1.5 if graded else 1.0))


class TestRestriction:
    @pytest.mark.parametrize("n, k", [(64, 16), (70, 16), (17, 16), (9, 4)])
    def test_coarse_mesh_keeps_every_kth_node_and_the_last(self, n, k):
        fine = _fine_mesh(n, graded=True)
        coarse = coarsen(fine, k)
        assert coarse.n == -(-n // k)
        assert np.array_equal(coarse.nodes[:-1], fine.nodes[:-1:k])
        assert coarse.nodes[-1] == fine.nodes[-1]

    @given(st.integers(2, 200), st.sampled_from([2, 4, 16]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_restriction_keeps_each_coarse_integral(self, n, k, graded, seed):
        fine = _fine_mesh(max(n, k + 1), graded)
        coarse = coarsen(fine, k)
        u = P0Field(fine, np.random.default_rng(seed).normal(size=fine.n))
        r = restrict_p0(u, coarse)
        # integral of u over each coarse element, from the fine elements it holds
        fine_integrals = np.add.reduceat(fine.element_sizes * u.values, np.arange(0, fine.n, k))
        scale = np.add.reduceat(fine.element_sizes * np.abs(u.values), np.arange(0, fine.n, k))
        assert np.all(np.abs(coarse.element_sizes * r.values - fine_integrals) <= 1e-14 * scale)

    @given(st.integers(17, 300), st.booleans(), st.integers(0, 2**32 - 1))
    def test_restricted_bounds_keep_their_sign(self, n, graded, seed):
        fine = _fine_mesh(n, graded)
        coarse = coarsen(fine, 16)
        rng = np.random.default_rng(seed)
        mag = 10.0 ** rng.uniform(-300, 300, fine.n) * (rng.uniform(size=fine.n) < 0.7)
        a = restrict_p0(P0Field(fine, -mag), coarse).values
        b = restrict_p0(P0Field(fine, np.where(rng.uniform(size=fine.n) < 0.1, np.inf, mag)),
                        coarse).values
        assert np.all(a <= 0.0) and np.all(b >= 0.0)

    def test_constant_field_stays_constant(self):
        fine = _fine_mesh(100, graded=True)
        r = restrict_p0(P0Field.constant(fine, 3.0), coarsen(fine, 16))
        assert np.allclose(r.values, 3.0, rtol=1e-15, atol=0.0)

    def test_mesh_that_is_not_nested_is_rejected(self):
        u = P0Field.zeros(build_uniform_mesh(8))
        with pytest.raises(ValueError, match="nested"):
            restrict_p0(u, build_uniform_mesh(3))
        with pytest.raises(ValueError, match="nested"):
            restrict_p0(u, Mesh1D(np.array([0.0, 0.5, 2.0])))
