"""Active-set solver: termination, invariants, oracle agreement."""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from conftest import eta_threshold, toy_problem, zero_problem
from sparsebeam import ssn
from sparsebeam.control import (
    BRANCH_LOWER,
    BRANCH_NEG,
    BRANCH_POS,
    BRANCH_UPPER,
    BRANCH_ZERO,
    ControlParams,
    classify_branches,
    variational_inequality_residual,
)
from sparsebeam.fem import BeamParams, LinearSolveError, LoadData
from sparsebeam.meshes import Mesh1D, P0Field, P1Field, build_uniform_mesh, l2_diff_p0
from sparsebeam.oracles import OracleConfig, ReducedQuadratic, fd_gradient_check, prox_gradient_solve
from sparsebeam.problem import ControlProblem
from sparsebeam.ssn import (
    SSNConfig,
    _PatternBand,
    _PatternSolver,
    kkt_residual,
    newton_system,
    residual,
    ssn_solve,
)


def _cycling_sine_problem():
    """A load that cycles at nu = 1e-12, so the solve reseeds."""
    return ControlProblem(build_uniform_mesh(200), BeamParams(E=1.0, t=0.01),
                          LoadData(f=lambda x: 100 * np.sin(8 * np.pi * x)),
                          ControlParams(nu=1e-12, eta=1e-5, a=-60, b=60))


def _recorded_solves(monkeypatch):
    """Record (pattern, weight, shift given) for every pattern solve."""
    solves = []
    solve = _PatternSolver.solve

    def recorded(self, branches, nu=None, shift=None):
        solves.append((branches.tobytes(), self.nu if nu is None else nu, shift is not None))
        return solve(self, branches, nu, shift)

    monkeypatch.setattr(_PatternSolver, "solve", recorded)
    return solves


class TestTermination:
    def test_zero_data_converges_immediately(self):
        prob = zero_problem()
        res = ssn_solve(prob)
        assert res.converged
        assert res.stop_reason == "converged"
        assert res.iterations <= 2
        assert np.all(res.u.values == 0.0)
        assert res.null_count == prob.mesh.n
        assert res.residual_history[-1] == 0.0

    def test_large_eta_shuts_control_off(self):
        prob = toy_problem(nu=1e-4)
        eta = 1.01 * eta_threshold(prob)
        res = ssn_solve(prob.with_control(eta=eta))
        assert res.converged
        assert np.all(res.u.values == 0.0)
        assert res.null_count == prob.mesh.n

    def test_final_two_active_sets_equal_on_convergence(self):
        prob = toy_problem(nu=1e-4, eta=2e-4)
        res = ssn_solve(prob)
        assert res.converged
        assert len(res.active_set_history) >= 2
        assert np.array_equal(res.active_set_history[-1], res.active_set_history[-2])

    def test_residual_history_ends_at_minimum(self):
        prob = toy_problem(nu=1e-4, eta=1e-4)
        res = ssn_solve(prob)
        assert res.converged
        assert res.residual_history[-1] <= min(res.residual_history)
        assert res.residual_history[-1] <= 1e-10

    def test_iteration_cap_reports_failure(self):
        prob = toy_problem(nu=1e-6, eta=0.3 * eta_threshold(toy_problem(nu=1e-6)))
        res = ssn_solve(prob, SSNConfig(max_iter=2))
        assert not res.converged
        assert res.stop_reason == "max_iter"

    def test_repeated_pattern_ends_the_loop(self):
        # a fixed-point pattern whose residual misses tol: the pattern's
        # solve cannot improve, so the loop stops there without reseeding
        # and reports the residual it reached
        prob = toy_problem(n=200, nu=1e-4, t=1e-5)
        config = SSNConfig(tol=1e-20)
        res = ssn_solve(prob.with_control(eta=0.6 * eta_threshold(prob)), config)
        assert res.iterations == len(res.residual_history)
        assert not res.converged
        assert res.residual_history[-1] > config.tol
        assert np.array_equal(res.active_set_history[-1], res.active_set_history[-2])
        assert res.stop_reason == "repeat_above_tol"

    def test_thin_toy_converges(self):
        # at t = 1e-5 the 1/t^2 shear scale left the final pattern's
        # complementarity residual at 1.7e-10 before the band was
        # row-equilibrated; it now meets tol at the first repeat
        prob = toy_problem(n=200, nu=1e-4, t=1e-5)
        res = ssn_solve(prob.with_control(eta=0.6 * eta_threshold(prob)))
        assert res.converged
        assert res.stop_reason == "converged"
        assert res.iterations == len(res.residual_history)

    def test_settled_probe_is_not_solved_again(self, monkeypatch):
        # at nu = 1e-12 this load cycles and reseeds; the reseed ends on a
        # probe that has solved the final pattern at the true weight, and
        # the main loop reuses that solve instead of repeating it
        solves = _recorded_solves(monkeypatch)
        res = ssn_solve(_cycling_sine_problem())
        assert res.converged
        assert res.iterations > len(res.residual_history)  # the reseed ran
        assert res.iterations == len(solves)
        # unshifted solves are at the true weight
        assert not any(not (shift_a or shift_b) and pat_a == pat_b
                       for (pat_a, _, shift_a), (pat_b, _, shift_b) in zip(solves, solves[1:]))

    def test_no_run_solves_a_pattern_twice(self, monkeypatch):
        # a run (the main loop, a proximal stage or a probe) is a stretch of
        # consecutive solves at one weight, shifted or not.  Its pattern map
        # is deterministic, so a run whose pattern recurs can never settle
        # and must stop instead of solving the pattern again
        solves = _recorded_solves(monkeypatch)
        res = ssn_solve(_cycling_sine_problem())
        assert res.converged
        runs = [[pat for pat, _, _ in run]
                for _, run in itertools.groupby(solves, key=lambda solve: solve[1:])]
        assert sum(shift for _, _, shift in solves) > 0  # proximal stages ran
        assert all(len(set(run)) == len(run) for run in runs)

    def test_spent_reseed_budget_has_its_own_stop_reason(self, monkeypatch):
        # reseed budgets too small for the cycling load: the reseed stops
        # before a probe settles, the main loop resumes and cycles again
        seed = ssn._continuation_seed
        for budget in (1, 2, 3, 4):
            monkeypatch.setattr(ssn, "_continuation_seed",
                                lambda ps, z, tau, c: seed(ps, z, tau, c, budget))
            res = ssn_solve(_cycling_sine_problem())
            assert not res.converged
            assert res.iterations - len(res.residual_history) >= budget
            assert res.stop_reason == "reseed_budget"

    @pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 31),
                                       np.linspace(0.0, 1.0, 26) ** 1.5],
                             ids=["other_n", "same_n_other_nodes"])
    @pytest.mark.parametrize("nu", [1e-8, 1e-4])
    def test_u0_from_another_mesh_is_rejected(self, nodes, nu):
        # at nu = 1e-8 the solve cycles and its reseed would read u0; at
        # nu = 1e-4 it terminates without one
        prob = toy_problem(nu=nu)
        prob = prob.with_control(eta=0.3 * eta_threshold(prob))
        u0 = P0Field(Mesh1D(nodes), np.ones(nodes.size - 1))
        with pytest.raises(ValueError, match="different mesh"):
            ssn_solve(prob, SSNConfig(u0=u0))

    def test_non_integer_max_iter_is_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            SSNConfig(max_iter=2.5)

    @pytest.mark.parametrize("t", [1e-2, 1e-3])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    @pytest.mark.parametrize("nu", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_cycle_reseed_recovers_ill_scaled_weight(self, nu, graded, t):
        # cold starts in this regime cycle between branch patterns; the
        # continuation reseed must still reach the certified optimum
        prob = toy_problem(nu=nu, t=t)
        if graded:
            prob = prob.with_mesh(Mesh1D(np.linspace(0.0, 1.0, prob.mesh.n + 1) ** 1.5))
        prob = prob.with_control(eta=0.3 * eta_threshold(prob))
        res = ssn_solve(prob)
        assert res.converged
        assert res.iterations > len(res.residual_history)  # the reseed ran
        orc = prox_gradient_solve(prob, OracleConfig(tol=1e-13))
        assert orc.certified
        # objective gap through the dense reduced model, as acceptance 1
        rq = ReducedQuadratic(prob)
        gap = abs(rq.partial_objective(res.u.values) - rq.partial_objective(orc.u.values))
        assert gap <= 1e-12 * max(1.0, prob.cost(res.u, res.state).total)
        if nu == 1e-6:
            assert l2_diff_p0(res.u, orc.u) <= 1e-8


class TestResultInvariants:
    def test_vi_within_ten_tol_when_well_scaled(self):
        for nu in (1e-4, 1e-5):
            prob = toy_problem(nu=nu)
            eta_star = eta_threshold(prob)
            for frac in (0.0, 0.3, 0.7):
                p = prob.with_control(eta=frac * eta_star)
                res = ssn_solve(p)
                assert res.converged
                vi = variational_inequality_residual(res.u, res.adjoint.p, p.control)
                assert vi <= 10.0 * 1e-10

    def test_vi_post_solve_bound_small_weight(self):
        # at nu = 1e-6 the distance amplifies roundoff by roughly the ratio
        # of the tracking-operator norm to nu; the post-solve bound is 1e-8
        prob = toy_problem(nu=1e-6)
        for frac in (0.0, 0.3, 0.7):
            p = prob.with_control(eta=frac * eta_threshold(prob))
            res = ssn_solve(p)
            assert res.converged
            assert variational_inequality_residual(res.u, res.adjoint.p, p.control) <= 1e-8

    def test_control_is_admissible_and_multipliers_signed(self):
        prob = toy_problem(nu=1e-6, bound=5.0)
        p = prob.with_control(eta=0.2 * eta_threshold(prob))
        res = ssn_solve(p)
        assert res.converged
        a, b = p.bounds
        assert np.all(res.u.values >= a) and np.all(res.u.values <= b)
        eta = p.control.eta
        lam = res.multipliers.lam.values
        assert np.all(np.abs(lam) <= eta + 1e-12)
        on = res.u.values != 0.0
        assert np.allclose(lam[on], eta * np.sign(res.u.values[on]))
        assert np.all(res.multipliers.lam_a.values >= 0.0)
        assert np.all(res.multipliers.lam_b.values >= 0.0)

    def test_null_count_matches_zero_elements(self):
        prob = toy_problem(nu=1e-6)
        p = prob.with_control(eta=0.5 * eta_threshold(prob))
        res = ssn_solve(p)
        assert res.null_count == int(np.count_nonzero(res.u.values == 0.0))
        assert 0 < res.null_count < prob.mesh.n

    def test_initial_guess_invariance(self):
        prob = toy_problem(nu=1e-6, bound=12.0)
        p = prob.with_control(eta=0.25 * eta_threshold(prob))
        a, b = p.bounds
        runs = [
            ssn_solve(p),
            ssn_solve(p, SSNConfig(u0=P0Field(p.mesh, a.copy()))),
            ssn_solve(p, SSNConfig(u0=P0Field(p.mesh, b.copy()))),
        ]
        assert all(r.converged for r in runs)
        for other in runs[1:]:
            assert l2_diff_p0(runs[0].u, other.u) <= 1e-8

    def test_gradient_consistency_of_returned_multiplier(self):
        prob = toy_problem(nu=1e-5)
        p = prob.with_control(eta=0.4 * eta_threshold(prob))
        res = ssn_solve(p)
        out = kkt_residual(p, res.u, res.mu)
        assert out["consistency"] <= 1e-8
        assert out["complementarity"] <= 1e-8


def _target(kind, mesh, fn):
    if kind == "scalar":
        return 0.01
    if kind == "callable":
        return fn
    if kind == "p0":
        return P0Field(mesh, fn(mesh.midpoints))
    return P1Field.from_callable(mesh, fn)


class TestTargetKinds:
    @pytest.mark.parametrize("theta_term", [False, True], ids=["w", "w+theta"])
    @pytest.mark.parametrize("kind", ["scalar", "callable", "p0", "p1"])
    def test_solve_converges_and_is_certified(self, kind, theta_term):
        base = toy_problem(nu=1e-4)
        mesh = base.mesh
        loads = LoadData(f=base.loads.f,
                         w_d=_target(kind, mesh, lambda x: 0.01 * np.sin(np.pi * x)),
                         theta_d=_target(kind, mesh, lambda x: 0.02 * np.cos(np.pi * x)))
        prob = ControlProblem(mesh, base.beam, loads, base.control, adjoint_theta_term=theta_term)
        prob = prob.with_control(eta=0.3 * eta_threshold(prob))
        res = ssn_solve(prob)
        assert res.converged
        out = kkt_residual(prob, res.u)
        assert out["complementarity"] <= 1e-8 and out["vi"] <= 1e-8
        orc = prox_gradient_solve(prob, OracleConfig(tol=1e-13))
        assert orc.certified and l2_diff_p0(res.u, orc.u) <= 1e-8
        assert fd_gradient_check(prob, res.u) <= 1e-6


class TestPureL2:
    def test_unconstrained_quadratic_solves_in_one_step(self):
        # no bounds, no sparsity: a single coupled solve lands on the optimum
        prob = toy_problem(nu=1e-4, bound=np.inf)
        res = ssn_solve(prob.with_control(eta=0.0))
        assert res.converged
        assert res.iterations <= 2
        # stationarity nu*u = pbar means the aggregate multiplier vanishes
        assert np.max(np.abs(res.mu.values)) <= 1e-12

    def test_cost_beats_zero_control(self):
        prob = toy_problem(nu=1e-5)
        res = ssn_solve(prob.with_control(eta=0.0))
        assert prob.cost(res.u).total < prob.cost(prob.zero_control()).total


class TestResidualBlocks:
    def test_zero_data_all_blocks_zero(self):
        prob = zero_problem()
        mesh = prob.mesh
        out = residual(prob, P0Field.zeros(mesh), P0Field.zeros(mesh))
        for key in ("F1", "F2", "F3", "F4"):
            assert np.all(out[key] == 0.0)

    def test_exact_solution_zeroes_everything(self):
        prob = toy_problem(nu=1e-4)
        p = prob.with_control(eta=0.3 * eta_threshold(prob))
        res = ssn_solve(p)
        out = residual(p, res.u, res.mu)
        for key in ("F1", "F2", "F3", "F4"):
            assert np.max(np.abs(out[key])) <= 1e-10, key

    def test_stale_fields_isolate_block_bookkeeping(self):
        prob = toy_problem(nu=1e-4)
        p = prob.with_control(eta=0.3 * eta_threshold(prob))
        res = ssn_solve(p)
        base = residual(p, res.u, res.mu, res.state, res.adjoint)

        j, delta = 7, 0.125
        u2 = res.u.values.copy()
        u2[j] += delta
        pert = residual(p, P0Field(p.mesh, u2), res.mu, res.state, res.adjoint)

        # state row: only the two deflection dofs neighboring element j react
        d1 = pert["F1"] - base["F1"]
        touched = np.nonzero(d1)[0]
        assert set(touched) <= {2 * (j - 1), 2 * j}
        assert touched.size > 0
        # gradient row: exactly nu*delta at element j
        d2 = pert["F2"] - base["F2"]
        assert d2[j] == pytest.approx(p.control.nu * delta, rel=1e-12)
        assert np.all(np.delete(d2, j) == 0.0)
        # adjoint row ignores the control entirely
        assert np.array_equal(pert["F3"], base["F3"])
        # complementarity is elementwise
        d4 = pert["F4"] - base["F4"]
        assert np.all(np.delete(d4, j) == 0.0)


class TestNewtonSystem:
    def test_three_element_active_set_matches_dense_schur(self):
        prob = toy_problem(n=8, nu=1e-3, eta=1e-4, bound=2.0)
        branches = np.full(8, BRANCH_ZERO)
        branches[0] = BRANCH_UPPER
        branches[2] = BRANCH_POS
        branches[4] = BRANCH_NEG
        branches[6] = BRANCH_POS
        A, rhs, free = newton_system(prob, branches)
        assert list(free) == [2, 4, 6]
        m = 2 * (prob.mesh.n - 1)
        assert A.shape == (2 * m + 3, 2 * m + 3)

        from scipy.sparse.linalg import spsolve
        sol = spsolve(A.tocsc(), rhs)
        u_sparse = sol[2 * m:]

        # eliminate the state and adjoint blocks by hand: the Schur system
        # in the free controls is nu*I + T[free, free]
        rq = ReducedQuadratic(prob)
        fixed = np.setdiff1d(np.arange(8), free)
        u_fix = np.zeros(8)
        u_fix[0] = prob.bounds[1][0]
        s = np.array([1.0, -1.0, 1.0])
        S = prob.control.nu * np.eye(3) + rq.T[np.ix_(free, free)]
        r = rq.r0[free] - prob.control.eta * s - rq.T[np.ix_(free, fixed)] @ u_fix[fixed]
        u_dense = np.linalg.solve(S, r)
        assert np.max(np.abs(u_sparse - u_dense)) <= 1e-10 * (1.0 + np.max(np.abs(u_dense)))

    def test_all_fixed_pattern_has_no_matrix(self):
        prob = toy_problem(n=6)
        A, rhs, free = newton_system(prob, np.full(6, BRANCH_ZERO))
        assert A is None
        assert free.size == 0
        assert rhs.shape == (2 * 2 * (prob.mesh.n - 1),)


@st.composite
def pattern_cases(draw):
    """A problem, a branch pattern and an optional proximal reseed shift."""
    n = draw(st.integers(2, 40))
    nodes = np.linspace(0.0, 1.0, n + 1)
    if draw(st.booleans()):
        nodes = nodes ** draw(st.sampled_from([2.0, 3.0]))  # graded toward x = 0
    t = draw(st.sampled_from([1.0, 1e-2, 1e-5]))
    nu = 10.0 ** draw(st.floats(-12.0, 0.0))
    problem = ControlProblem(
        Mesh1D(nodes), BeamParams(E=1.0, t=t),
        LoadData(f=lambda x: 100.0 * np.sin(3.0 * x), w_d=lambda x: 0.01 * x,
                 theta_d=lambda x: 0.02 * x),
        ControlParams(nu=nu, eta=1e-3, a=-5.0, b=5.0),
        adjoint_theta_term=draw(st.booleans()),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    free = rng.choice([BRANCH_POS, BRANCH_NEG], n)
    fixed = rng.choice([BRANCH_ZERO, BRANCH_UPPER, BRANCH_LOWER], n)
    kind = draw(st.sampled_from(["free", "fixed", "alternating", "random"]))
    branches = {
        "free": free,
        "fixed": fixed,
        "alternating": np.where(np.arange(n) % 2 == 0, free, fixed),
        "random": np.where(rng.random(n) < 0.5, free, fixed),
    }[kind]
    nu_eff, shift = nu, None
    if draw(st.booleans()):  # a reseed stage: inflated weight, shifted control rows
        tau = 10.0 ** draw(st.floats(-6.0, 2.0))
        nu_eff, shift = nu + tau, tau * rng.uniform(-5.0, 5.0, n)
    return problem, branches, nu_eff, shift


class TestBandedPatternSolve:
    EPS = np.finfo(float).eps

    @given(pattern_cases())
    def test_backward_stable_and_matches_spsolve(self, case):
        problem, branches, nu_eff, shift = case
        s = problem.system
        x, y, u = _PatternSolver(problem).solve(branches, nu_eff, shift)
        A, rhs, free = newton_system(problem.with_control(nu=nu_eff), branches)
        if A is None:
            # no free control: the block lower-triangular state/adjoint system
            A = sp.bmat([[s.K, None], [s.Mt, s.K]], format="csr")
            sol = np.concatenate([x, y])
        else:
            # newton_system's matrix equals the stack of the separately built blocks
            ref = sp.bmat([[s.K, None, -s.B[:, free]],
                           [s.Mt, s.K, None],
                           [None, -s.Avg[free, :], nu_eff * sp.identity(free.size)]])
            assert abs(A - ref).max() == 0.0
            if shift is not None:
                rhs[2 * s.K.shape[0]:] += shift[free]
            sol = np.concatenate([x, y, u[free]])
        fixed = np.setdiff1d(np.arange(problem.mesh.n), free)
        a, b = problem.bounds
        targets = np.select([branches == BRANCH_UPPER, branches == BRANCH_LOWER], [b, a], 0.0)
        assert np.array_equal(u[fixed], targets[fixed])

        residual = np.abs(A @ sol - rhs)
        a_norm = abs(A).sum(axis=1).max()
        backward = np.max(residual) / (a_norm * np.max(np.abs(sol)) + np.max(np.abs(rhs)))
        assert backward <= 8 * self.EPS
        if problem.beam.t >= 1e-2:
            # the refinement step reaches the componentwise backward-error
            # floor; at t = 1e-5 the 1/t^2 shear scale can leave it a few
            # eps above that floor
            scale = abs(A) @ np.abs(sol) + np.abs(rhs)
            componentwise = np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0)
            assert np.max(componentwise) <= 8 * self.EPS

        reference = spsolve(A.tocsc(), rhs)
        kappa = np.linalg.cond(A.toarray(), np.inf)
        assert np.max(np.abs(sol - reference)) <= 10 * kappa * self.EPS * np.max(np.abs(reference))

    @pytest.mark.parametrize("t", [1e-2, 1e-3])
    def test_one_refinement_step_at_large_n(self, monkeypatch, t):
        # the large-n benchmark's sine load at n = 1e4 and the pattern its
        # main loop solves first with a free element (classified at the
        # adjoint average of u = 0): on the row-equilibrated band one
        # refinement step reaches the componentwise backward-error floor,
        # which the 1/t^2 shear scale puts out of reach of unscaled rows
        problem = ControlProblem(build_uniform_mesh(10_000), BeamParams(E=1.0, t=t),
                                 LoadData(f=lambda x: 100.0 * np.sin(8.0 * np.pi * x)),
                                 ControlParams(nu=1e-6, eta=1e-5, a=-60.0, b=60.0))
        c = problem.control
        pbar = problem.averaged_adjoint(problem.solve_state(problem.zero_control())).values
        branches = classify_branches(pbar, *problem.bounds, c.nu, c.eta)
        calls = []
        dgbtrs = ssn.dgbtrs

        def counted(*args, **kwargs):
            calls.append(1)
            return dgbtrs(*args, **kwargs)

        monkeypatch.setattr(ssn, "dgbtrs", counted)
        x, y, u = _PatternSolver(problem).solve(branches)
        assert len(calls) == 2  # the solve and one refinement step
        A, rhs, free = newton_system(problem, branches)
        assert free.size > 0
        sol = np.concatenate([x, y, u[free]])
        scale = abs(A) @ np.abs(sol) + np.abs(rhs)
        assert np.max(np.abs(A @ sol - rhs) / scale) <= 8 * self.EPS

    def test_zero_pivot_raises(self):
        # without stiffness the rotation columns are empty (no theta
        # tracking term), so dgbtrf meets an exact zero pivot
        s = toy_problem(n=6, nu=1e-3).system
        band = _PatternBand(sp.csr_matrix(s.K.shape), s.Mt, s.B, s.Avg)
        is_free = np.ones(6, dtype=bool)
        with pytest.raises(LinearSolveError):
            band.solve(is_free, 1e-3, s.Lf, s.Ld, np.zeros(6))


class TestOracleAgreement:
    def test_midsize_sweep_point_matches_prox_oracle(self):
        # 50-element variant of the eta-sweep configuration at the weight
        # scale where the first elements switch off
        from sparsebeam.config import build_problem, load_config

        cfg = load_config("configs/sweep.ini")
        prob = build_problem(cfg, n=50)
        eta_star = eta_threshold(prob)
        p = prob.with_control(eta=eta_star / 9.0)
        res = ssn_solve(p)
        assert res.converged
        orc = prox_gradient_solve(p, OracleConfig(tol=1e-13))
        assert orc.certified
        assert l2_diff_p0(res.u, orc.u) <= 1e-8
        assert 0 < res.null_count < 50

    def test_no_factorization_failures_across_weight_ladder(self):
        # fractions avoid the exact shutoff weight: there the optimum parks
        # an element precisely on a branch edge and the float tie can
        # alternate patterns (an honest non-convergence, not a crash)
        prob = toy_problem(n=40, nu=1e-6)
        eta_star = eta_threshold(prob)
        prev = None
        for frac in (0.0, 0.12, 0.25, 0.37, 0.5, 0.63, 0.75, 0.88, 0.96, 1.05):
            cfgp = prob.with_control(eta=frac * eta_star)
            guess = SSNConfig(u0=prev) if prev is not None else SSNConfig()
            res = ssn_solve(cfgp, guess)
            assert res.converged, frac
            prev = res.u
        assert res.null_count == 40  # past the shutoff weight
