"""Assembly, direct solves, and the analytic clamped-beam solution."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from sparsebeam import fem
from sparsebeam.fem import (
    SCHEMES,
    BeamOperator,
    BeamParams,
    LinearSolveError,
    LoadData,
    assemble_load,
    assemble_mixed_blocks,
    control_load_matrix,
    p1_mass_matrix,
    recover_shear,
)
from sparsebeam.control import ControlParams
from sparsebeam.meshes import Mesh1D, P0Field, P1Field, build_uniform_mesh, eval_p1
from sparsebeam.problem import ControlProblem
from manufactured import error_norms
from reference import assemble_stiffness as coo_stiffness
from reference import condense_mixed_system, p1_interpolant, solve_state


def analytic_constant_load(params, q=1.0, L=1.0):
    """Closed-form clamped solution on (0, L) under constant transverse load q.

    With EI = E/12 and ks = kappa/t^2:
        theta(x) = q x (L - x)(L - 2x) / (12 EI),
        w(x) = q x^2 (L - x)^2 / (24 EI) + q x (L - x) / (2 ks),
        shear(x) = q (L/2 - x).
    """
    EI = params.E / 12.0
    ks = params.kappa / params.t**2
    w = lambda x: q * x**2 * (L - x) ** 2 / (24 * EI) + q * x * (L - x) / (2 * ks)
    theta = lambda x: q * x * (L - x) * (L - 2 * x) / (12 * EI)
    shear = lambda x: q * (L / 2 - x)
    return w, theta, shear


class TestBeamParams:
    def test_kappa_from_shear_modulus(self):
        p = BeamParams(E=2.0, poisson=0.25, k=0.5)
        assert p.shear_modulus == pytest.approx(0.8)
        assert p.kappa == pytest.approx(0.4)

    def test_kappa_override(self):
        p = BeamParams(E=2.0, kappa_override=7.0)
        assert p.kappa == 7.0

    @pytest.mark.parametrize("kwargs", [
        dict(E=0.0), dict(t=0.0), dict(t=1.5), dict(k=1.0), dict(k=0.0),
        dict(poisson=0.5), dict(poisson=-0.1),
        dict(kappa_override=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BeamParams(**kwargs)


class TestStiffness:
    def setup_method(self):
        self.mesh = build_uniform_mesh(9)
        self.params = BeamParams(E=1.3, t=0.05, kappa_override=0.9)

    def test_shape_symmetry_definiteness(self):
        for scheme in ("locking_free", "standard"):
            K = BeamOperator(self.mesh, self.params, scheme).K
            m = 2 * (self.mesh.n - 1)
            assert K.shape == (m, m)
            dense = K.toarray()
            assert np.allclose(dense, dense.T)
            assert np.min(np.linalg.eigvalsh(dense)) > 0

    def test_bandwidth_three(self):
        K = BeamOperator(self.mesh, self.params).K.toarray()
        i, j = np.nonzero(K)
        assert np.max(np.abs(i - j)) <= 3

    def test_schemes_differ_only_in_rotation_block(self):
        # the shear quadrature choice touches only theta-theta couplings
        d = (BeamOperator(self.mesh, self.params, "standard").K
             - BeamOperator(self.mesh, self.params, "locking_free").K).toarray()
        assert np.any(d != 0)
        assert np.all(d[0::2, :] == 0)
        assert np.all(d[:, 0::2] == 0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            BeamOperator(self.mesh, self.params, "exotic")

    @pytest.mark.parametrize("t", [1.0, 1e-2, 1e-3])
    def test_condensed_mixed_system_matches(self, t):
        params = BeamParams(E=1.3, t=t, kappa_override=0.9)
        K = BeamOperator(self.mesh, params, "locking_free").K.toarray()
        Kc = condense_mixed_system(self.mesh, params)
        scale = np.max(np.abs(K))
        assert np.max(np.abs(K - Kc)) <= 1e-12 * scale

    @given(n=st.integers(2, 300), grading=st.sampled_from([1.0, 2.0, 3.0]),
           scheme=st.sampled_from(SCHEMES), log_t=st.floats(-5.0, 0.0),
           kappa=st.one_of(st.none(), st.floats(1e-2, 1e2)))
    def test_diagonal_assembly_equals_coo_reference(self, n, grading, scheme, log_t, kappa):
        mesh = Mesh1D(np.linspace(0.0, 1.0, n + 1) ** grading)
        params = BeamParams(E=1.3, t=10.0**log_t, kappa_override=kappa)
        op = BeamOperator(mesh, params, scheme)
        K, band = op.K, op.K_band
        K_ref = coo_stiffness(mesh, params, scheme)
        diff = K - K_ref
        diff.eliminate_zeros()
        assert diff.nnz == 0
        # K leaves out the reference's exact zeros, the cancelled w-theta
        # entry of each node; the rest is summed in the same order, so
        # products agree bit for bit
        assert np.all(K.data != 0)
        X = np.random.default_rng(n).standard_normal((K.shape[0], 3))
        assert np.array_equal(K @ X[:, 0], K_ref @ X[:, 0])
        assert np.array_equal(K @ X, K_ref @ X)
        for d in range(4):
            assert np.array_equal(band[3 - d, d:], K_ref.diagonal(d))

    def test_mixed_blocks_shapes(self):
        A, C, Mg = assemble_mixed_blocks(self.mesh, self.params)
        n, m = self.mesh.n, 2 * (self.mesh.n - 1)
        assert A.shape == (m, m) and C.shape == (m, n) and Mg.shape == (n, n)
        assert (Mg - sp.diags(self.mesh.element_sizes)).nnz == 0


class TestLoads:
    def test_p0_control_matches_load_matrix(self):
        mesh = build_uniform_mesh(7)
        params = BeamParams(E=1.0, t=0.1, kappa_override=1.0)
        rng = np.random.default_rng(3)
        u = P0Field(mesh, rng.normal(size=7))
        load = assemble_load(mesh, params, u, 0.0)
        B = control_load_matrix(mesh)
        assert np.allclose(load, B @ u.values, atol=1e-15)
        assert np.all(load[1::2] == 0)

    def test_p1_load_matches_mass_matrix(self):
        # the two-point rule is exact for P1 data, on a graded mesh too
        mesh = Mesh1D(np.linspace(0.0, 1.0, 10) ** 1.5)
        params = BeamParams(E=1.0, t=0.1, kappa_override=1.0)
        vals = np.random.default_rng(5).normal(size=mesh.n + 1)
        vals[[0, -1]] = 0.0  # no coupling to the boundary nodes
        load = assemble_load(mesh, params, P1Field(mesh, vals), 0.0)
        assert np.allclose(load[0::2], p1_mass_matrix(mesh) @ vals[1:-1], rtol=1e-14, atol=1e-15)

    def test_constant_load_values(self):
        mesh = build_uniform_mesh(4)  # h = 1/4
        params = BeamParams(E=1.0, t=0.1, kappa_override=1.0)
        load = assemble_load(mesh, params, 2.0, 0.0)
        # each interior hat integrates to h under a constant
        assert np.allclose(load[0::2], 2.0 * 0.25)

    @pytest.mark.parametrize("kind", ["nan-constant", "inf-constant", "nan-p0", "nan-moment"])
    def test_nonfinite_exact_load_is_rejected(self, kind):
        # constants and P0 fields take the midpoint rule, not the quadrature
        mesh = build_uniform_mesh(4)
        params = BeamParams(E=1.0, t=0.1, kappa_override=1.0)
        f, g = {
            "nan-constant": (np.nan, 0.0),
            "inf-constant": (-np.inf, 0.0),
            "nan-p0": (P0Field(mesh, np.array([0.0, np.nan, 0.0, 0.0])), 0.0),
            "nan-moment": (0.0, np.nan),
        }[kind]
        with pytest.raises(ValueError, match="non-finite"):
            assemble_load(mesh, params, f, g)

    def test_moment_load_scaling(self):
        mesh = build_uniform_mesh(4)
        params = BeamParams(E=1.0, t=0.2, kappa_override=1.0)
        load = assemble_load(mesh, params, 0.0, 3.0)
        assert np.all(load[0::2] == 0)
        assert np.allclose(load[1::2], (0.2**2 / 12.0) * 3.0 * 0.25)

    def test_callable_load_quadrature(self):
        # quadratic integrated exactly by the 2-point rule
        mesh = build_uniform_mesh(3)
        params = BeamParams(E=1.0, t=0.1, kappa_override=1.0)
        load = assemble_load(mesh, params, lambda x: x**2, 0.0)
        # int x^2 phi_i for hat at node 1/3 and 2/3 (exact by hand)
        h = 1.0 / 3.0

        def exact(c):
            from scipy.integrate import quad
            lo, hi = c - h, c + h
            val, _ = quad(lambda x: x**2 * max(0.0, 1.0 - abs(x - c) / h), lo, hi)
            return val

        assert load[0] == pytest.approx(exact(1.0 / 3.0), rel=1e-12)
        assert load[2] == pytest.approx(exact(2.0 / 3.0), rel=1e-12)

    def test_p1_mass_matrix_small(self):
        mesh = build_uniform_mesh(3)  # 2 interior nodes, h = 1/3
        M = p1_mass_matrix(mesh).toarray()
        h = 1.0 / 3.0
        assert np.allclose(M, [[2 * h / 3, h / 6], [h / 6, 2 * h / 3]])


class TestStateSolve:
    def test_zero_data_gives_zero(self):
        mesh = build_uniform_mesh(6)
        params = BeamParams(E=1.0, t=0.01, kappa_override=1.0)
        st = solve_state(mesh, params, LoadData())
        assert np.all(st.w.values == 0)
        assert np.all(st.theta.values == 0)
        assert np.all(st.gamma.values == 0)

    def test_linearity_in_control(self):
        mesh = build_uniform_mesh(8)
        params = BeamParams(E=1.0, t=0.05, kappa_override=1.0)
        rng = np.random.default_rng(5)
        u1 = P0Field(mesh, rng.normal(size=8))
        u2 = P0Field(mesh, rng.normal(size=8))
        both = P0Field(mesh, u1.values + u2.values)
        s1 = solve_state(mesh, params, LoadData(), u=u1)
        s2 = solve_state(mesh, params, LoadData(), u=u2)
        s12 = solve_state(mesh, params, LoadData(), u=both)
        assert np.allclose(s12.w.values, s1.w.values + s2.w.values, atol=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.01])
    def test_against_analytic_constant_load(self, t):
        params = BeamParams(E=1.2, t=t, kappa_override=1.0)
        w_ex, th_ex, sh_ex = analytic_constant_load(params, q=1.0)
        mesh = build_uniform_mesh(128)
        st = solve_state(mesh, params, LoadData(f=1.0))
        assert eval_p1(st.w, 0.5) == pytest.approx(w_ex(0.5), rel=1e-3)
        # rotation and shear come out nodally exact under a constant load
        assert eval_p1(st.theta, 0.25) == pytest.approx(th_ex(0.25), abs=1e-10)
        assert np.max(np.abs(st.gamma.values - sh_ex(mesh.midpoints))) < 1e-9

    def test_standard_scheme_locks_when_thin(self):
        params = BeamParams(E=1.2, t=1e-3, kappa_override=1.0)
        w_ex, _, _ = analytic_constant_load(params)
        mesh = build_uniform_mesh(16)
        wl = eval_p1(solve_state(mesh, params, LoadData(f=1.0), scheme="locking_free").w, 0.5)
        ws = eval_p1(solve_state(mesh, params, LoadData(f=1.0), scheme="standard").w, 0.5)
        assert abs(wl - w_ex(0.5)) / w_ex(0.5) < 0.05
        assert ws < 0.01 * w_ex(0.5)  # the standard element collapses

    def test_operator_solve_accuracy(self):
        mesh = build_uniform_mesh(40)
        params = BeamParams(E=1.0, t=0.01, kappa_override=1.0)
        op = BeamOperator(mesh, params)
        rng = np.random.default_rng(11)
        rhs = rng.normal(size=2 * (mesh.n - 1))
        x = op.solve(rhs)
        # normwise backward error: the matrix carries the 1/t^2 shear scale
        knorm = np.max(np.abs(op.K).sum(axis=1))
        floor = 1e-15 * (knorm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert np.max(np.abs(op.K @ x - rhs)) <= floor

    def test_operator_build_peaks_below_twice_what_it_keeps(self):
        # the operator keeps K, its upper band and the Cholesky factor;
        # assembling them from the element entries needs less scratch than that
        mesh = build_uniform_mesh(20_000)
        params = BeamParams(E=1.0, t=0.01)
        tracemalloc.start()
        try:
            op = BeamOperator(mesh, params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.K.shape == (2 * 19_999, 2 * 19_999)
        assert peak <= 2 * kept

    def test_few_columns_keep_the_banded_solve(self):
        # a vector, the 2-column warm-start solve and every matrix below the
        # column rule take LAPACK's banded solve, bit for bit as before
        op = BeamOperator(build_uniform_mesh(40), BeamParams(E=1.0, t=1e-3))
        rng = np.random.default_rng(4)
        for shape in [(78,), (78, 2), (78, fem._BLOCKED_COLUMNS - 1)]:
            rhs = rng.normal(size=shape)
            x = sla.cho_solve_banded((op._cb, False), rhs)
            x += sla.cho_solve_banded((op._cb, False), rhs - op.K @ x)
            assert np.array_equal(op.solve(rhs), x)

    @pytest.mark.parametrize("n, t, grading", [
        (2, 1e-2, 1.0),  # the smallest mesh: 2 rows
        (5, 1e-2, 1.0),  # fewer rows (8) than one block
        (9, 1e-2, 1.0),  # exactly one block of rows
        (10, 1e-2, 1.0),  # a last block of 2 rows, fewer than its coupling rows
        (40, 1e-5, 1.5),  # a thin beam on an x^1.5-graded mesh, 78 rows
        (150, 1e-5, 1.0),  # 298 rows, not a multiple of the block
    ])
    def test_many_columns_solved_by_row_blocks(self, n, t, grading, monkeypatch):
        # every column of the row-blocked solve has the componentwise
        # backward error of a one-column solve: max_i |b - K x|_i /
        # (|K| |x| + |b|)_i within a few units of roundoff, which bounds
        # both paths alike (at most 2.7 u measured, u = 2^-53)
        calls = []
        substitute = fem._substitute
        monkeypatch.setattr(fem, "_substitute", lambda z, *b: calls.append(z.shape) or substitute(z, *b))
        op = BeamOperator(Mesh1D(np.linspace(0.0, 1.0, n + 1) ** grading), BeamParams(E=1.0, t=t))
        m = op.K.shape[0]
        rhs = np.random.default_rng(n).normal(size=(m, fem._BLOCKED_COLUMNS + 5))
        x = op.solve(rhs)
        assert calls == [rhs.shape, rhs.shape] and x.flags.c_contiguous

        def backward_error(x, b):
            return np.max(np.abs(b - op.K @ x) / (abs(op.K) @ np.abs(x) + np.abs(b)), axis=0)

        single = np.column_stack([op.solve(b) for b in rhs.T])
        assert len(calls) == 2
        bound = 8 * 2.0**-53
        assert np.all(backward_error(single, rhs) <= bound)
        assert np.all(backward_error(x, rhs) <= bound)

    def test_recover_shear_definition(self):
        mesh = build_uniform_mesh(4)
        params = BeamParams(E=1.0, t=0.5, kappa_override=2.0)
        w = P1Field.from_interior(mesh, np.array([0.1, 0.2, 0.1]))
        th = P1Field.from_interior(mesh, np.array([0.3, 0.0, -0.3]))
        g = recover_shear(mesh, params, w, th)
        ks = 2.0 / 0.25
        dw = np.diff(w.values) * 4.0
        tbar = 0.5 * (th.values[:-1] + th.values[1:])
        assert np.allclose(g.values, ks * (dw - tbar))


class TestErrorNorms:
    def test_zero_for_identical_fields(self):
        mesh = build_uniform_mesh(6)
        v = p1_interpolant(mesh, lambda x: np.sin(np.pi * x))
        out = error_norms((v, v), (v, v))
        assert out["l2_w"] == 0.0 and out["h1_theta"] == 0.0

    def test_field_and_callable_paths_agree(self):
        mesh = build_uniform_mesh(30)
        w = p1_interpolant(mesh, lambda x: np.sin(np.pi * x))
        th = P1Field.zeros(mesh)
        zero = P1Field.zeros(mesh)
        by_field = error_norms((w, th), (zero, zero))
        by_call = error_norms(
            (w, th),
            (lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
            b_derivatives=(lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
        )
        assert by_field["l2_w"] == pytest.approx(by_call["l2_w"], rel=1e-6)
        assert by_field["h1_w"] == pytest.approx(by_call["h1_w"], rel=1e-4)

    def test_h1_dominates_l2(self):
        mesh = build_uniform_mesh(12)
        v = p1_interpolant(mesh, lambda x: x * (1 - x))
        out = error_norms((v, P1Field.zeros(mesh)), (P1Field.zeros(mesh), P1Field.zeros(mesh)))
        assert out["h1_w"] >= out["l2_w"]

    def test_mesh_mismatch_rejected(self):
        a = P1Field.zeros(build_uniform_mesh(4))
        b = P1Field.zeros(build_uniform_mesh(5))
        with pytest.raises(ValueError):
            error_norms((a, a), (b, b))


# Element-loop references of the vectorized block builders.

def _loop_control_load(mesh):
    n, h = mesh.n, mesh.element_sizes
    B = np.zeros((2 * (n - 1), n))
    for j in range(n):
        for node in (j, j + 1):
            if 1 <= node <= n - 1:
                B[2 * (node - 1), j] += h[j] / 2.0
    return B


def _loop_average(mesh):
    n = mesh.n
    Avg = np.zeros((n, 2 * (n - 1)))
    for j in range(n):
        for node in (j, j + 1):
            if 1 <= node <= n - 1:
                Avg[j, 2 * (node - 1)] += 0.5
    return Avg


def _loop_mixed(mesh, params):
    n, h = mesh.n, mesh.element_sizes
    m = 2 * (n - 1)
    Eb = params.E / 12.0
    A = np.zeros((m, m))
    C = np.zeros((m, n))
    for j in range(n):
        nodes = [node for node in (j, j + 1) if 1 <= node <= n - 1]
        for a in nodes:
            for b in nodes:
                A[2 * (a - 1) + 1, 2 * (b - 1) + 1] += (Eb if a == b else -Eb) / h[j]
        for node, sgn in ((j, -1.0), (j + 1, +1.0)):
            if 1 <= node <= n - 1:
                C[2 * (node - 1), j] += sgn
                C[2 * (node - 1) + 1, j] += -h[j] / 2.0
    return A, C, np.diag(h)


class TestVectorizedBuilders:
    PARAMS = BeamParams(E=1.3, t=0.05, kappa_override=0.9)

    @pytest.mark.parametrize("nodes", [
        np.linspace(0.0, 1.0, 3),
        np.linspace(0.0, 1.0, 10),
        np.linspace(0.0, 1.0, 12) ** 2,
        np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 15)]),
    ], ids=["two-elements", "uniform", "graded", "geometric"])
    def test_equal_to_element_loops(self, nodes):
        mesh = Mesh1D(nodes)
        assert np.array_equal(control_load_matrix(mesh).toarray(), _loop_control_load(mesh))
        problem = ControlProblem(mesh, self.PARAMS, LoadData(), ControlParams(nu=1.0, eta=0.0))
        assert np.array_equal(problem.system.Avg.toarray(), _loop_average(mesh))
        for got, ref in zip(assemble_mixed_blocks(mesh, self.PARAMS), _loop_mixed(mesh, self.PARAMS)):
            assert np.array_equal(got.toarray(), ref)


def test_linear_solve_error_is_runtime_error():
    assert issubclass(LinearSolveError, RuntimeError)
