"""Independent optimizers and the discrete gradient check."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.blas import dsymv

from conftest import eta_threshold, toy_problem, zero_problem
from reference import reduced_operator
from sparsebeam import oracles
from sparsebeam.control import ControlParams
from sparsebeam.fem import BeamOperator, BeamParams, LoadData
from sparsebeam.meshes import Mesh1D, P0Field, build_uniform_mesh, l2_diff_p0
from sparsebeam.problem import ControlProblem
from sparsebeam.oracles import (
    _POLISH_EVERY,
    _POLISH_STEPS,
    _POWER_MAX,
    ReducedQuadratic,
    _polish,
    fd_gradient_check,
    prox_gradient_solve,
)
from sparsebeam.ssn import ssn_solve


def _count_multi_column_solves(monkeypatch):
    """Count BeamOperator.solve calls with a matrix right-hand side, which
    only the reduced-operator build makes."""
    calls = []
    solve = BeamOperator.solve

    def counted(self, rhs):
        if np.ndim(rhs) == 2:
            calls.append(np.shape(rhs)[1])
        return solve(self, rhs)

    monkeypatch.setattr(BeamOperator, "solve", counted)
    return calls


class _CountingMatrix(np.ndarray):
    """A dense matrix that counts its products with vectors."""
    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return self.view(np.ndarray) @ other


def _count_symmetric_products(monkeypatch):
    """Count the symmetric products with H, the iterations' products."""
    calls = []

    def counted(*args):
        calls.append(1)
        return dsymv(*args)

    monkeypatch.setattr(oracles, "dsymv", counted)
    return calls


def _refuse_certificates(monkeypatch):
    """Make every polish report no certificate, so prox_gradient_solve
    runs its uncertified path; the polish still solves, so a chain goes on
    from its exact pbar."""
    polish = oracles._polish

    def refused(rq, branches):
        u, pbar, _ = polish(rq, branches)
        return u, pbar, False

    monkeypatch.setattr(oracles, "_polish", refused)


def _record_chains(monkeypatch):
    """Per checkpoint (one fixed-point residual each), the branch patterns
    its chain classifies and whether each of its polishes verified."""
    chains = []
    classify, polish = oracles.classify_branches, oracles._polish
    residual = ReducedQuadratic.fixed_point_residual

    def checkpoint(self, *args):
        chains.append(([], []))
        return residual(self, *args)

    def classified(*args):
        branches = classify(*args)
        chains[-1][0].append(branches.tobytes())
        return branches

    def polished(rq, branches):
        out = polish(rq, branches)
        chains[-1][1].append(out[2])
        return out

    monkeypatch.setattr(ReducedQuadratic, "fixed_point_residual", checkpoint)
    monkeypatch.setattr(oracles, "classify_branches", classified)
    monkeypatch.setattr(oracles, "_polish", polished)
    return chains


def _thin_problem():
    prob = toy_problem(n=80, nu=1e-6, t=1e-3)
    return prob.with_control(eta=0.3 * eta_threshold(prob))


def _graded_problem():
    prob = replace(toy_problem(n=80, nu=1e-6), mesh=Mesh1D(np.linspace(0.0, 1.0, 81) ** 1.5))
    return prob.with_control(eta=0.3 * eta_threshold(prob))


def _certify_instance(n, nu, t, amp, freq, phase, frac):
    """An instance of the certify benchmark's skeleton, unscaled: a sine
    load on a uniform mesh, bounds of 60, eta a fraction of the threshold."""
    load = LoadData(f=lambda x: amp * np.sin(freq * np.pi * x + phase))
    prob = ControlProblem(build_uniform_mesh(n, 1.0), BeamParams(E=1.0, t=t), load,
                          ControlParams(nu=nu, eta=0.0, a=-60.0, b=60.0))
    return prob.with_control(eta=frac * eta_threshold(prob))


def _cycling_instance():
    # FISTA needs 1,000 iterations here; its chains cycle and one spends
    # all _POLISH_STEPS polishes
    return _certify_instance(395, 5.33987081451005e-09, 1e-2, 142.6268927278794, 3,
                             5.9644499771647475, 0.06483920649396233)


class TestReducedQuadratic:
    def test_pbar_matches_solver_chain(self):
        prob = toy_problem(n=12, nu=1e-4)
        rq = ReducedQuadratic(prob)
        rng = np.random.default_rng(1)
        u = rng.normal(size=12)
        via_pde = prob.averaged_adjoint(prob.solve_state(P0Field(prob.mesh, u))).values
        assert np.allclose(rq.pbar(u), via_pde, atol=1e-12)

    def test_reduced_operator_is_spd(self):
        # T is built through two banded solves, so its symmetry holds to the
        # solver's backward-error floor; eigenvalues decay like a compact
        # operator's, hence the signed tolerance on the smallest one
        prob = toy_problem(n=10)
        rq = ReducedQuadratic(prob)
        sym_gap = np.max(np.abs(rq.T - rq.T.T))
        assert sym_gap <= 1e-10 * np.max(np.abs(rq.T))
        eigs = np.linalg.eigvalsh(0.5 * (rq.T + rq.T.T))
        assert eigs.min() >= -1e-12 * eigs.max()
        assert eigs.max() > 0

    def test_lipschitz_bounds_largest_eigenvalue(self):
        prob = toy_problem(n=10, nu=1e-4)
        rq = ReducedQuadratic(prob)
        lam = np.max(np.linalg.eigvalsh(0.5 * (rq.T + rq.T.T))) + rq.nu
        assert rq.lipschitz() >= lam * 0.999

    @pytest.mark.parametrize("make", [_thin_problem, _graded_problem])
    def test_power_iteration_stops_once_estimates_agree(self, make, monkeypatch):
        # the all-ones start lies close to T's positive top eigenvector, so a
        # handful of products pins the top eigenvalue of nu*I + T
        prob = make()
        calls = _count_symmetric_products(monkeypatch)
        rq = ReducedQuadratic(prob)
        lip = rq.lipschitz()
        assert len(calls) <= 20 < _POWER_MAX
        top = np.max(np.linalg.eigvals(rq.T).real) + rq.nu
        assert lip == pytest.approx(1.02 * top + rq.nu, rel=1e-10)

    @pytest.mark.parametrize("make", [_thin_problem, _graded_problem])
    def test_symmetric_copy(self, make):
        prob = make()
        rq = ReducedQuadratic(prob)
        H = rq.H
        assert not H.flags.writeable and H.flags.f_contiguous
        DT = rq.h[:, None] * rq.T
        assert np.array_equal(H, 0.5 * (DT + DT.T))
        assert np.array_equal(H, H.T)
        # the symmetric product is T u up to roundoff and the build's
        # asymmetry, which on the thin beam reaches 1e-8 of DT
        u = np.random.default_rng(3).normal(size=prob.mesh.n)
        Tu = rq.T @ u
        assert np.max(np.abs(rq.sym_product(u) - Tu)) <= 1e-7 * np.max(np.abs(Tu))

    def test_built_once_per_problem(self, monkeypatch):
        calls = _count_multi_column_solves(monkeypatch)
        prob = toy_problem(n=12, nu=1e-4)
        rq = ReducedQuadratic(prob)
        assert ReducedQuadratic(prob).T is rq.T
        # T, r0 and H do not depend on the control, so copies share them
        copy = prob.with_control(eta=0.5 * eta_threshold(prob))
        other = ReducedQuadratic(copy)
        assert other.T is rq.T and other.r0 is rq.r0 and other.H is rq.H
        assert other.eta != rq.eta
        assert calls == [12, 12]
        # the cache keeps neither the system nor the build alive: both go
        # with the last problem that holds the system
        system, T = weakref.ref(prob.system), weakref.ref(rq.T)
        del prob, copy, rq, other
        gc.collect()
        assert system() is None and T() is None

    @pytest.mark.parametrize("t", [1e-2, 1e-3])
    def test_reduced_build_is_as_accurate_as_column_solves(self, t):
        # the row-blocked build against the long-double T, next to the same
        # build by LAPACK's banded solve, which substitutes one column at a
        # time; both refine once.  Measured on the certify beams: 0.73 to
        # 1.27 times the column build's error, 1e-10 to 5e-10 of max|T| at
        # t = 1e-2 and 2e-8 to 7e-8 at t = 1e-3
        prob = _certify_instance(300, 1e-6, t, 100.0, 4, 0.5, 0.5)
        s, op = prob.system, prob.system.operator

        def column_solve(rhs):
            x = sla.cho_solve_banded((op._cb, False), rhs)
            x += sla.cho_solve_banded((op._cb, False), rhs - op.K @ x)
            return x

        exact = reduced_operator(prob)
        by_columns = s.Avg @ column_solve(s.Mt @ column_solve(s.B.toarray()))
        scale = np.max(np.abs(exact))
        error = float(np.max(np.abs(ReducedQuadratic(prob).T - exact))) / scale
        assert error <= 2.0 * float(np.max(np.abs(by_columns - exact))) / scale
        assert error <= (1e-9 if t == 1e-2 else 1e-7)

    def test_reduced_build_peaks_at_three_right_hand_sides(self):
        # the build's solves hold the right-hand side, the solution and one
        # scratch array of its size (the residual, then the correction) at
        # once; the product with Mt replaces the first solve's right-hand
        # side, and T and H are a ninth of one at most (n = 736, as the
        # largest certify instance)
        n = 736
        problem = ControlProblem(build_uniform_mesh(n), BeamParams(E=1.0, t=1e-3),
                                 LoadData(f=1.0), ControlParams(nu=1e-6, eta=1e-5))
        system = problem.system
        tracemalloc.start()
        try:
            oracles._reduced(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rhs = system.B.shape[0] * n * 8
        assert peak <= 3.1 * rhs

    def test_cached_operator_is_read_only(self):
        rq = ReducedQuadratic(toy_problem(n=8))
        with pytest.raises(ValueError):
            rq.T[0, 0] = 1.0
        with pytest.raises(ValueError):
            rq.r0[0] = 1.0
        with pytest.raises(ValueError):
            rq.H[0, 0] = 1.0


class TestProxGradient:
    def test_zero_data(self):
        res = prox_gradient_solve(zero_problem())
        assert res.converged
        assert np.all(res.u.values == 0.0)

    def test_large_eta_shuts_off(self):
        prob = toy_problem(nu=1e-4)
        res = prox_gradient_solve(prob.with_control(eta=1.05 * eta_threshold(prob)))
        assert res.certified
        assert np.all(res.u.values == 0.0)

    def test_certified_against_ssn(self):
        prob = toy_problem(n=20, nu=1e-5)
        p = prob.with_control(eta=0.4 * eta_threshold(prob))
        orc = prox_gradient_solve(p)
        res = ssn_solve(p)
        assert orc.certified and res.converged
        assert l2_diff_p0(res.u, orc.u) <= 1e-9

    @pytest.mark.parametrize("polish", [True, False])
    def test_one_dense_product_per_iteration(self, polish, monkeypatch):
        if not polish:
            _refuse_certificates(monkeypatch)
        chains = _record_chains(monkeypatch)
        prob = toy_problem(n=20, nu=1e-5)
        p = prob.with_control(eta=0.4 * eta_threshold(prob))
        T, r0, H = oracles._reduced(p.system)
        oracles._REDUCED[p.system] = (T.view(_CountingMatrix), r0, H)
        symmetric = _count_symmetric_products(monkeypatch)
        ReducedQuadratic(p).lipschitz()
        power = len(symmetric)
        symmetric.clear()
        _CountingMatrix.products = 0
        monkeypatch.setattr(oracles, "_TOL", 0.0)
        monkeypatch.setattr(oracles, "_MAX_ITER", 600)
        res = prox_gradient_solve(p)
        assert res.iterations >= _POLISH_EVERY and res.certified == polish
        # one symmetric product per FISTA iteration, after the power
        # iteration's, which stops well before its cap
        assert len(symmetric) == res.iterations + power and power < _POWER_MAX
        # exact products: one per checkpoint (iteration 0, every
        # _POLISH_EVERY iterations and the exit); each polish, in the chains
        # of the checkpoints after the first, spends one on the fixed part of
        # its free system and one on its pbar, which the next classification
        # of its chain reuses, and a certified exit one on its fixed-point
        # residual
        checkpoints = 1 + -(-res.iterations // _POLISH_EVERY)
        polishes = sum(len(oks) for _, oks in chains)
        assert 0 < polishes <= _POLISH_STEPS * (checkpoints - 1)
        assert _CountingMatrix.products == checkpoints + 2 * polishes + polish

    @pytest.mark.parametrize("make", [_thin_problem, _graded_problem])
    def test_certificate_reads_only_the_two_solve_operator(self, make):
        # the iterations run on H, the certified control is the polish of
        # its branch pattern on T: H never reaches it, so a perturbed H
        # leaves the certified control unchanged bit for bit
        prob = make()
        res = prox_gradient_solve(prob)
        assert res.certified
        rq = ReducedQuadratic(prob)
        u, _, ok = _polish(rq, res.branches)
        assert ok and np.array_equal(res.u.values, np.clip(u, rq.a, rq.b))
        other = make()
        T, r0, H = oracles._reduced(other.system)
        noise = np.random.default_rng(5).uniform(-1e-9, 1e-9, size=H.shape)
        oracles._REDUCED[other.system] = (T, r0, np.asfortranarray(H * (1.0 + noise + noise.T)))
        moved = prox_gradient_solve(other)
        assert moved.certified and np.array_equal(moved.u.values, res.u.values)

    @pytest.mark.parametrize("limits, polish, certified, converged", [
        ({}, True, True, True),
        ({"_TOL": 1e-6}, False, False, True),
        ({"_TOL": 0.0, "_MAX_ITER": _POLISH_EVERY + 37}, False, False, False),
    ], ids=["certified", "tolerance", "max_iter"])
    def test_fixed_point_residual_describes_returned_point(self, limits, polish, certified,
                                                           converged, monkeypatch):
        if not polish:
            _refuse_certificates(monkeypatch)
        for name, value in limits.items():
            monkeypatch.setattr(oracles, name, value)
        prob = _thin_problem()
        res = prox_gradient_solve(prob)
        assert (res.certified, res.converged) == (certified, converged)
        if not converged:
            assert res.iterations == oracles._MAX_ITER
        rq = ReducedQuadratic(prob)
        u = res.u.values
        tau = 1.0 / rq.lipschitz()
        assert res.fixed_point_residual == rq.fixed_point_residual(u, rq.T @ u, tau)

    def test_uncertified_path_reports_flag(self, monkeypatch):
        _refuse_certificates(monkeypatch)
        prob = toy_problem(n=10, nu=1e-3)
        monkeypatch.setattr(oracles, "_TOL", 1e-16)
        monkeypatch.setattr(oracles, "_MAX_ITER", 1)
        res = prox_gradient_solve(prob)
        assert not res.certified

    def test_chained_polish_certifies_at_the_first_checkpoint(self, monkeypatch):
        # the certify benchmark's n = 512 instance: the iterate's pattern at
        # iteration 200 fails, and two polishes from exact pbars reach the
        # optimal pattern; one polish per checkpoint, the rule without the
        # chain, certifies only at iteration 2,800, at the same point
        prob = _certify_instance(512, 1.8774643161953067e-09, 1e-2, 147.51739267955776, 6,
                                 5.3634791734322755, 0.26726917752685153)
        chains = _record_chains(monkeypatch)
        chained = prox_gradient_solve(prob)
        assert chained.certified and chained.iterations == _POLISH_EVERY
        assert [oks for _, oks in chains] == [[], [False, False, True], []]
        monkeypatch.setattr(oracles, "_POLISH_STEPS", 1)
        single = prox_gradient_solve(prob)
        assert single.certified and single.iterations == 2800
        assert np.array_equal(chained.u.values, single.u.values)
        assert np.array_equal(chained.mu.values, single.mu.values)
        assert np.array_equal(chained.branches, single.branches)

    @pytest.mark.parametrize("steps", [3, _POLISH_STEPS])
    def test_chain_is_capped(self, steps, monkeypatch):
        monkeypatch.setattr(oracles, "_POLISH_STEPS", steps)
        chains = _record_chains(monkeypatch)
        res = prox_gradient_solve(_cycling_instance())
        assert res.certified
        # no chain polishes more than steps times, and some chain is ended
        # by the cap: it classifies no pattern after its last polish
        assert max(len(oks) for _, oks in chains) == steps
        assert any(len(oks) == len(patterns) == steps and not oks[-1]
                   for patterns, oks in chains)
        # one polish verifies: the one that ends the solve
        assert sum(ok for _, oks in chains for ok in oks) == 1

    def test_chain_stops_at_a_recurring_pattern(self, monkeypatch):
        chains = _record_chains(monkeypatch)
        prox_gradient_solve(_cycling_instance())
        recurring = 0
        for patterns, oks in chains:
            # each polish polishes a new pattern
            assert len(set(patterns[:len(oks)])) == len(oks)
            if oks and not oks[-1] and len(oks) < _POLISH_STEPS:
                # the classification after the last polish repeats a
                # pattern of the chain, which ends without polishing it
                assert len(patterns) == len(oks) + 1
                assert patterns[-1] in patterns[:-1]
                recurring += 1
        assert recurring >= 1


class TestDenseKKT:
    """The oracle's certified point, the dense free-branch solve whose every
    KKT inequality its polish verifies, against the Newton solver on small
    instances."""

    def test_small_mesh_certifies(self):
        prob = toy_problem(n=15, nu=1e-5)
        p = prob.with_control(eta=0.35 * eta_threshold(prob))
        orc = prox_gradient_solve(p)
        assert orc.certified
        res = ssn_solve(p)
        assert l2_diff_p0(res.u, orc.u) <= 1e-9

    def test_agrees_with_prox_on_bound_active_instance(self):
        prob = toy_problem(n=12, nu=1e-6, bound=5.0)  # bounds clip hard
        res = ssn_solve(prob)
        orc = prox_gradient_solve(prob)
        assert res.converged and orc.certified
        assert l2_diff_p0(res.u, orc.u) <= 1e-9
        assert np.max(np.abs(res.u.values)) == pytest.approx(5.0)


class TestGradientCheck:
    @pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-5])
    def test_adjoint_gradient_matches_finite_differences(self, step):
        # the smooth reduced cost is quadratic, so central differences are
        # exact up to roundoff at any step
        prob = toy_problem(n=20, nu=1e-4)
        rng = np.random.default_rng(7)
        u = P0Field(prob.mesh, rng.uniform(-5, 5, size=20))
        assert fd_gradient_check(prob, u, step=step) <= 1e-6

    def test_at_zero_control(self):
        prob = toy_problem(n=20, nu=1e-4)
        assert fd_gradient_check(prob, P0Field.zeros(prob.mesh)) <= 1e-6

    def test_default_step_on_saturated_thin_beam(self):
        # a step of 1e-5 leaves a cancellation error near 5e-5 here; the
        # default step scales with the control, which sits at the bounds
        mesh = build_uniform_mesh(868)
        prob = ControlProblem(mesh, BeamParams(E=1.0, t=1e-3),
                              LoadData(f=lambda x: 1e4 * np.sin(8.0 * np.pi * x)),
                              ControlParams(nu=5.1e-9, eta=1e-6, a=-60.0, b=60.0))
        res = ssn_solve(prob)
        assert res.converged
        assert np.mean(np.abs(res.u.values) == 60.0) >= 0.99
        assert fd_gradient_check(prob, res.u) <= 1e-6
