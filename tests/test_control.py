"""Pointwise optimality layer: shrinkage, branches, complementarity, cost."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    kkt_consistent_scalar,
    p1_interpolant,
    p1_tracking,
    pointwise_optimal_control,
    variational_inequality_residual,
)
from sparsebeam.control import (
    BRANCH_LOWER,
    BRANCH_NEG,
    BRANCH_POS,
    BRANCH_UPPER,
    BRANCH_ZERO,
    ControlParams,
    classify_branches,
    complementarity_values,
    cost,
    discretize_bounds,
    reconstruct_multipliers,
    shrink,
)
from sparsebeam.meshes import Mesh1D, P0Field, P1Field, build_uniform_mesh, p0_average

# dyadic grids keep every branch comparison exact in floating point, so the
# equivalence tests below need no tolerance at all
dyadic = st.integers(min_value=-20, max_value=20).map(lambda k: k * 0.25)
dyadic_pos = st.integers(min_value=1, max_value=16).map(lambda k: k * 0.25)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlParams(nu=0.0, eta=0.0)
        with pytest.raises(ValueError):
            ControlParams(nu=1.0, eta=-1.0)
        for weights in (dict(nu=np.inf, eta=0.0), dict(nu=1.0, eta=np.inf)):
            with pytest.raises(ValueError):  # the cost would read inf * 0 = nan
                ControlParams(**weights)
        with pytest.raises(ValueError):
            ControlParams(nu=1.0, eta=0.0, a=0.5)
        with pytest.raises(ValueError):
            ControlParams(nu=1.0, eta=0.0, b=-0.5)

    def test_one_sided_boxes_allowed(self):
        p = ControlParams(nu=1.0, eta=0.0)  # defaults are +-inf
        mesh = build_uniform_mesh(3)
        a, b = discretize_bounds(p, mesh)
        assert np.all(np.isinf(a)) and np.all(np.isinf(b))

    def test_callable_bounds_projected_and_checked(self):
        mesh = build_uniform_mesh(4)
        p = ControlParams(nu=1.0, eta=0.0, a=lambda x: -1.0 - x, b=lambda x: x + 0.5)
        a, b = discretize_bounds(p, mesh)
        assert np.allclose(a, -1.0 - mesh.midpoints)
        assert np.allclose(b, mesh.midpoints + 0.5)
        bad = ControlParams(nu=1.0, eta=0.0, a=lambda x: x - 0.5)  # positive right half
        with pytest.raises(ValueError):
            discretize_bounds(bad, mesh)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_nan_bounds_rejected(self, side):
        # NaN fails every comparison, so a sign test written as "a > 0"
        # passes it and the solve "converges" to a NaN control
        with pytest.raises(ValueError):
            ControlParams(nu=1.0, eta=0.0, **{side: np.nan})
        mesh = build_uniform_mesh(4)
        values = np.full(4, -1.0 if side == "a" else 1.0)
        values[2] = np.nan
        p = ControlParams(nu=1.0, eta=0.0, **{side: P0Field(mesh, values)})
        with pytest.raises(ValueError):
            discretize_bounds(p, mesh)


class TestShrink:
    def test_values(self):
        assert shrink(3.0, 1.0) == 2.0
        assert shrink(-3.0, 1.0) == -2.0
        assert shrink(0.5, 1.0) == 0.0
        assert shrink(1.0, 1.0) == 0.0  # threshold maps to zero
        assert np.allclose(shrink(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])

    @given(dyadic, dyadic_pos)
    def test_never_increases_magnitude_or_flips_sign(self, s, eta):
        out = shrink(s, eta)
        assert abs(out) <= abs(s)
        assert out * s >= 0.0


class TestPointwiseControl:
    def params(self, nu=1.0, eta=0.5, a=-2.0, b=3.0):
        return ControlParams(nu=nu, eta=eta, a=a, b=b)

    def test_hand_values(self):
        p = self.params()
        z = np.array([0.25, 1.5, 10.0, -1.5, -10.0])
        u = pointwise_optimal_control(z, p)
        assert np.allclose(u, [0.0, 1.0, 3.0, -1.0, -2.0])

    def test_p0field_roundtrip(self):
        mesh = build_uniform_mesh(5)
        z = P0Field(mesh, np.linspace(-3, 3, 5))
        u = pointwise_optimal_control(z, self.params())
        assert isinstance(u, P0Field)
        assert u.mesh is mesh

    def test_array_with_callable_bounds_needs_mesh(self):
        p = ControlParams(nu=1.0, eta=0.0, a=lambda x: -1.0 + 0 * x, b=1.0)
        with pytest.raises(ValueError):
            pointwise_optimal_control(np.zeros(3), p)
        mesh = build_uniform_mesh(3)
        out = pointwise_optimal_control(np.full(3, -5.0), p, mesh=mesh)
        assert np.allclose(out, -1.0)

    @given(st.lists(dyadic, min_size=1, max_size=12), dyadic_pos, dyadic_pos, dyadic_pos)
    def test_output_within_bounds(self, zs, nu, eta, width):
        p = self.params(nu=nu, eta=eta, a=-width, b=width)
        u = pointwise_optimal_control(np.array(zs), p)
        assert np.all(u >= -width) and np.all(u <= width)

    @given(st.lists(dyadic, min_size=1, max_size=12), dyadic_pos)
    def test_eta_zero_is_projection(self, zs, nu):
        z = np.array(zs)
        p = self.params(nu=nu, eta=0.0)
        assert np.array_equal(pointwise_optimal_control(z, p),
                              np.clip(z / nu, -2.0, 3.0))

    @given(st.lists(dyadic, min_size=1, max_size=12), dyadic_pos, dyadic_pos)
    def test_eta_monotonicity(self, zs, eta_small, extra):
        z = np.array(zs)
        eta_big = eta_small + extra
        u_small = pointwise_optimal_control(z, self.params(eta=eta_small))
        u_big = pointwise_optimal_control(z, self.params(eta=eta_big))
        # larger sparsity weight never increases magnitude, and the
        # zero set only grows
        assert np.all(np.abs(u_big) <= np.abs(u_small) + 1e-15)
        assert np.all(u_big[u_small == 0.0] == 0.0)


class TestBranches:
    def test_half_open_windows(self):
        a = np.full(5, -3.0)
        b = np.full(5, 2.0)
        z = np.array([1.0, 3.0, -1.0, -4.0, 0.5])
        br = classify_branches(z, a, b, nu=1.0, eta=1.0)
        # z - eta = 0 belongs to the positive window, z - eta = nu*b to the
        # upper bound; mirrored on the negative side
        assert list(br) == [BRANCH_POS, BRANCH_UPPER, BRANCH_NEG, BRANCH_LOWER, BRANCH_ZERO]

    def test_interior_window_strictly_below_bound(self):
        br = classify_branches(np.array([2.999]), np.array([-1.0]), np.array([2.0]),
                               nu=1.0, eta=1.0)
        assert br[0] == BRANCH_POS

    @given(st.lists(dyadic, min_size=1, max_size=12), dyadic_pos, dyadic_pos)
    def test_branches_agree_with_pointwise_map(self, zs, nu, eta):
        z = np.array(zs)
        a = np.full(z.size, -2.0)
        b = np.full(z.size, 3.0)
        br = classify_branches(z, a, b, nu, eta)
        u = pointwise_optimal_control(z, ControlParams(nu=nu, eta=eta, a=-2.0, b=3.0))
        assert np.all(u[br == BRANCH_ZERO] == 0.0)
        assert np.all(u[br == BRANCH_UPPER] == 3.0)
        assert np.all(u[br == BRANCH_LOWER] == -2.0)
        # free windows are half-open: z - eta = 0 is classified positive but
        # maps to u = 0, so the free branches pin the sign, not strictness
        assert np.all(u[br == BRANCH_POS] >= 0.0)
        assert np.all(u[br == BRANCH_POS] < 3.0)
        assert np.all(u[br == BRANCH_NEG] <= 0.0)
        assert np.all(u[br == BRANCH_NEG] > -2.0)


class TestComplementarity:
    @given(dyadic, dyadic, dyadic_pos, dyadic_pos, dyadic_pos, dyadic_pos)
    def test_root_set_equals_scalar_kkt(self, u, mu, nu, eta, wa, wb):
        """C(u, mu) = 0 exactly at the points passing branch enumeration."""
        a, b = -wa, wb
        c = complementarity_values(np.array([u]), np.array([mu]), np.array([a]),
                                   np.array([b]), nu, eta)[0]
        assert (c == 0.0) == kkt_consistent_scalar(u, mu, a, b, eta)

    @given(st.lists(dyadic, min_size=1, max_size=10), dyadic_pos, dyadic_pos)
    def test_zero_at_consistent_points(self, zs, nu, eta):
        z = np.array(zs)
        params = ControlParams(nu=nu, eta=eta, a=-2.0, b=3.0)
        u = pointwise_optimal_control(z, params)
        mu = z - nu * u
        c = complementarity_values(u, mu, np.full(z.size, -2.0), np.full(z.size, 3.0),
                                   nu, eta)
        assert np.max(np.abs(c)) <= 1e-12 * (1.0 + np.max(np.abs(z)))

    def test_nonzero_at_violations(self):
        # u strictly positive but mu != eta: not a KKT point
        c = complementarity_values(np.array([1.0]), np.array([0.0]), np.array([-5.0]),
                                   np.array([5.0]), 1.0, 0.5)
        assert c[0] != 0.0

    def test_lower_bound_branch_certified(self):
        nu, eta = 1.0, 0.5
        a = np.array([-1.0, -1.0])
        b = np.array([1.0, 1.0])
        # element 0 sits at the lower bound, element 1 is free positive
        u = np.array([-1.0, 0.5])
        mu = np.array([-2.0, eta])
        c = complementarity_values(u, mu, a, b, nu, eta)
        # the lower-bound term mirrors the upper-bound one, so this valid
        # KKT point has a zero residual
        assert np.array_equal(c, [0.0, 0.0]) and kkt_consistent_scalar(-1.0, -2.0, -1.0, 1.0, eta)


class TestMultipliers:
    @given(st.lists(dyadic, min_size=1, max_size=10), dyadic_pos)
    def test_split_identity_and_signs(self, zs, eta):
        mesh = build_uniform_mesh(max(2, len(zs)))
        z = np.resize(np.array(zs), mesh.n)
        params = ControlParams(nu=1.0, eta=eta, a=-2.0, b=3.0)
        u = pointwise_optimal_control(z, params)
        mu = z - u
        ms = reconstruct_multipliers(P0Field(mesh, u), P0Field(mesh, mu), params)
        assert np.allclose(ms.lam.values + ms.lam_b.values - ms.lam_a.values,
                           mu, atol=1e-14)
        assert np.all(np.abs(ms.lam.values) <= eta)
        assert np.all(ms.lam.values[u > 0] == eta)
        assert np.all(ms.lam.values[u < 0] == -eta)
        assert np.all(ms.lam_a.values >= 0.0)
        assert np.all(ms.lam_b.values >= 0.0)
        # bound multipliers vanish off their bound (complementary slackness)
        assert np.all(ms.lam_b.values[u < 3.0] <= 1e-14)
        assert np.all(ms.lam_a.values[u > -2.0] <= 1e-14)


class TestVariationalInequality:
    def test_zero_at_fixed_point(self):
        mesh = build_uniform_mesh(4)
        p = P1Field.from_interior(mesh, np.array([1.0, 2.0, 1.0]))
        params = ControlParams(nu=2.0, eta=0.25, a=-4.0, b=4.0)
        u = pointwise_optimal_control(p0_average(p), params)
        assert variational_inequality_residual(u, p, params) == 0.0

    def test_inadmissible_control_rejected(self):
        mesh = build_uniform_mesh(4)
        p = P1Field.zeros(mesh)
        params = ControlParams(nu=1.0, eta=0.0, a=-1.0, b=1.0)
        bad = P0Field.constant(mesh, 2.0)
        with pytest.raises(ValueError):
            variational_inequality_residual(bad, p, params)

    def test_measures_l2_distance(self):
        mesh = build_uniform_mesh(4)
        p = P1Field.zeros(mesh)  # optimal control is zero
        params = ControlParams(nu=1.0, eta=0.0, a=-1.0, b=1.0)
        u = P0Field.constant(mesh, 0.5)
        assert variational_inequality_residual(u, p, params) == pytest.approx(0.5)


class TestCost:
    def test_hand_computed_breakdown(self):
        mesh = build_uniform_mesh(4)
        w = P1Field.zeros(mesh)
        u = P0Field.constant(mesh, 3.0)
        params = ControlParams(nu=0.5, eta=0.2, a=-5.0, b=5.0)
        br = cost(u, w, 2.0, params)
        assert br.tracking == pytest.approx(2.0)       # 1/2 * 4 * |0,1|
        assert br.l2_term == pytest.approx(2.25)       # 1/2 * 0.5 * 9
        assert br.l1_term == pytest.approx(0.6)        # 0.2 * 3
        assert br.total == pytest.approx(4.85)

    def test_p0_target_matches_constant(self):
        mesh = build_uniform_mesh(5)
        w = p1_interpolant(mesh, lambda x: x * (1.0 - x))
        u = P0Field.constant(mesh, 1.0)
        params = ControlParams(nu=0.5, eta=0.2, a=-5.0, b=5.0)
        field = cost(u, w, P0Field.constant(mesh, 0.25), params)
        assert field == cost(u, w, 0.25, params)

    def test_p1_target_closed_form(self):
        mesh = build_uniform_mesh(8)
        w = p1_interpolant(mesh, lambda x: np.sin(np.pi * x))
        params = ControlParams(nu=1.0, eta=0.0, a=-1.0, b=1.0)
        br = cost(P0Field.zeros(mesh), w, w, params)
        assert br.tracking == 0.0
        # matching callable target integrates the same interpolant shape but
        # compares against the exact sine: small but nonzero
        br2 = cost(P0Field.zeros(mesh), w, lambda x: np.sin(np.pi * x), params)
        assert 0.0 < br2.tracking < 1e-3

    @pytest.mark.parametrize("grading", [1.0, 2.0], ids=["uniform", "graded"])
    def test_p1_target_on_own_mesh_matches_element_formula(self, grading):
        # two-point Gauss is exact for the quadratic (w - w_d)^2 on each element
        mesh = Mesh1D(np.linspace(0.0, 1.0, 41) ** grading)
        w = p1_interpolant(mesh, lambda x: np.sin(np.pi * x))
        w_d = p1_interpolant(mesh, lambda x: 0.3 * x * (1.0 - x) + 0.05 * np.sin(7.0 * x))
        params = ControlParams(nu=1.0, eta=0.0)
        ref = p1_tracking(w, w_d)
        assert cost(P0Field.zeros(mesh), w, w_d, params).tracking == pytest.approx(ref, rel=1e-13)
