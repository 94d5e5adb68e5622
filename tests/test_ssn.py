"""Active-set solver: termination, invariants, oracle agreement."""
import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from conftest import eta_threshold, toy_problem, zero_problem
from reference import (
    kkt_residual,
    p1_interpolant,
    pattern_system,
    residual,
    variational_inequality_residual,
)
from sparsebeam import ssn
from sparsebeam.config import build_problem, load_config
from sparsebeam.control import (
    BRANCH_LOWER,
    BRANCH_NEG,
    BRANCH_POS,
    BRANCH_UPPER,
    BRANCH_ZERO,
    ControlParams,
    classify_branches,
    complementarity_values,
)
from sparsebeam.fem import SCHEMES, BeamParams, LinearSolveError, LoadData
from sparsebeam.meshes import (
    Mesh1D,
    P0Field,
    build_uniform_mesh,
    coarsen,
    l2_diff_p0,
    restrict_p0,
)
from sparsebeam.oracles import ReducedQuadratic, fd_gradient_check, prox_gradient_solve
from sparsebeam.problem import ControlProblem
from sparsebeam.ssn import _PatternSolver, ssn_solve

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        assert np.count_nonzero(res.u.values == 0.0) == prob.mesh.n
        assert res.residual_history[-1] == 0.0

    def test_large_eta_shuts_control_off(self):
        prob = toy_problem(nu=1e-4)
        eta = 1.01 * eta_threshold(prob)
        res = ssn_solve(prob.with_control(eta=eta))
        assert res.converged
        assert np.all(res.u.values == 0.0)
        assert np.count_nonzero(res.u.values == 0.0) == prob.mesh.n

    def test_final_two_active_sets_equal_on_convergence(self):
        prob = toy_problem(nu=1e-4, eta=2e-4)
        res = ssn_solve(prob)
        assert res.converged
        assert res.stop_reason in ("converged", "repeat_above_tol")

    def test_residual_history_ends_at_minimum(self):
        prob = toy_problem(nu=1e-4, eta=1e-4)
        res = ssn_solve(prob)
        assert res.converged
        assert res.residual_history[-1] <= min(res.residual_history)
        assert res.residual_history[-1] <= 1e-10

    def test_iteration_cap_reports_failure(self, monkeypatch):
        monkeypatch.setattr(ssn, "_MAX_ITER", 2)
        prob = toy_problem(nu=1e-6, eta=0.3 * eta_threshold(toy_problem(nu=1e-6)))
        res = ssn_solve(prob)
        assert not res.converged
        assert res.stop_reason == "max_iter"

    def test_repeated_pattern_ends_the_loop(self, monkeypatch):
        # a fixed-point pattern whose residual misses tol: the pattern's
        # solve cannot improve, so the loop stops there without reseeding
        # and reports the residual it reached
        monkeypatch.setattr(ssn, "_TOL", 1e-20)
        prob = toy_problem(n=200, nu=1e-4, t=1e-5)
        res = ssn_solve(prob.with_control(eta=0.6 * eta_threshold(prob)))
        assert res.iterations == len(res.residual_history)
        assert not res.converged
        assert res.residual_history[-1] > ssn._TOL
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

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_max_iter_bounds_every_pattern_solve(self, monkeypatch, warm):
        # the cycling load needs 112 solves cold and 78 warm, so every budget
        # here runs out: in the main loop, a proximal stage or a probe, or
        # (warm, which starts in the reseed) before the main loop runs
        prob = _cycling_sine_problem()
        u0 = ssn_solve(prob.with_control(eta=0.5e-5)).u if warm else None
        solves = _recorded_solves(monkeypatch)
        for max_iter in range(1, 13):
            solves.clear()
            monkeypatch.setattr(ssn, "_MAX_ITER", max_iter)
            res = ssn_solve(prob, u0)
            assert res.iterations == len(solves) <= max_iter
            if not res.converged:
                assert res.stop_reason == "max_iter"
                assert res.iterations == max_iter

    @pytest.mark.parametrize("max_iter", [12, 34, 35])
    def test_graded_instance_stops_at_its_budget(self, monkeypatch, max_iter):
        # a thin graded beam whose main loop cycles after 10 solves and whose
        # reseed settles at the 35th: a budget of 34 or less is spent in the
        # reseed, to the last solve
        nodes = (np.arange(584) / 583) ** 1.5
        load = LoadData(f=lambda x: 172.5441262193364 * np.sin(np.pi * x + 3.7662659171177393))
        bound = 49.82415323960112
        base = ControlProblem(Mesh1D(nodes), BeamParams(E=1.0, t=4.37837352263112e-05), load,
                              ControlParams(nu=4.35297230033675e-09, eta=0.0, a=-bound, b=bound))
        prob = base.with_control(eta=0.5868627403009049 * eta_threshold(base))
        monkeypatch.setattr(ssn, "_MAX_ITER", max_iter)
        res = ssn_solve(prob)
        assert res.iterations == max_iter
        assert res.converged == (max_iter == 35)
        assert res.stop_reason == ("converged" if max_iter == 35 else "max_iter")

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
            ssn_solve(prob, u0)

    def test_u0_holding_nan_is_rejected(self):
        prob = toy_problem(nu=1e-8)
        values = np.ones(prob.mesh.n)
        values[3] = np.nan
        with pytest.raises(ValueError, match="u0 must be finite"):
            ssn_solve(prob, P0Field(prob.mesh, values))

    def test_infinite_u0_clips_to_the_box(self):
        # inside a finite box an infinite entry is the bound; past an
        # infinite bound it is rejected
        prob = toy_problem(nu=1e-8)
        prob = prob.with_control(eta=0.3 * eta_threshold(prob))
        signs = np.where(np.arange(prob.mesh.n) % 2 == 0, 1.0, -1.0)
        res = ssn_solve(prob, P0Field(prob.mesh, np.inf * signs))
        clipped = ssn_solve(prob, P0Field(prob.mesh, 15.0 * signs))
        assert res.converged and np.array_equal(res.u.values, clipped.u.values)
        free = prob.with_control(a=-np.inf, b=np.inf)
        with pytest.raises(ValueError, match="u0 must be finite"):
            ssn_solve(free, P0Field(prob.mesh, np.inf * signs))

    @pytest.mark.parametrize("t", [1e-2, 1e-3])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    @pytest.mark.parametrize("nu", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_cycle_reseed_recovers_ill_scaled_weight(self, nu, graded, t):
        # cold starts in this regime cycle between branch patterns; the
        # continuation reseed must still reach the certified optimum
        prob = toy_problem(nu=nu, t=t)
        if graded:
            prob = replace(prob, mesh=Mesh1D(np.linspace(0.0, 1.0, prob.mesh.n + 1) ** 1.5))
        prob = prob.with_control(eta=0.3 * eta_threshold(prob))
        res = ssn_solve(prob)
        assert res.converged
        assert res.iterations > len(res.residual_history)  # the reseed ran
        orc = prox_gradient_solve(prob)
        assert orc.certified
        # objective gap through the dense reduced model, as acceptance 1
        rq = ReducedQuadratic(prob)
        gap = abs(rq.partial_objective(res.u.values) - rq.partial_objective(orc.u.values))
        assert gap <= 1e-12 * max(1.0, prob.cost(res.u, res.state).total)
        if nu == 1e-6:
            assert l2_diff_p0(res.u, orc.u) <= 1e-8


def _p0_problem(mesh, nu=1e-6):
    """P0 load and P0 bounds, so the coarse problem restricts all its data."""
    x = mesh.midpoints
    f = P0Field(mesh, 100.0 * np.sin(8.0 * np.pi * x) + 5.0 * np.cos(40.0 * x))
    return ControlProblem(mesh, BeamParams(E=1.0, t=1e-2), LoadData(f=f),
                          ControlParams(nu=nu, eta=1e-5, a=P0Field(mesh, -40.0 - 20.0 * x),
                                        b=P0Field(mesh, 60.0 - 10.0 * x)))


def _spied_solves(monkeypatch):
    """Record (mesh, u0) of every ssn_solve, the nested ones included."""
    calls = []
    solve = ssn.ssn_solve

    def spy(problem, u0=None, seed=None):
        calls.append((problem.mesh, u0))
        return solve(problem, u0, seed)

    monkeypatch.setattr(ssn, "ssn_solve", spy)
    return calls


class TestNestedSeed:
    @pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 4097),
                                       np.linspace(0.0, 1.0, 4097) ** 1.5,
                                       np.linspace(0.0, 1.0, 4108)],
                             ids=["uniform", "graded", "n_not_multiple_of_16"])
    def test_nested_control_equals_cold(self, monkeypatch, nodes):
        # the seed moves only the start: the pattern a solve settles on, and
        # so its control, are the cold solve's; the prolonged coarse adjoint
        # classifies that pattern first
        problem = _p0_problem(Mesh1D(nodes))
        nested = ssn_solve(problem)
        monkeypatch.setattr(ssn, "_NEST_MIN", problem.mesh.n + 1)
        cold = ssn_solve(problem)
        assert nested.converged and cold.converged
        assert nested.coarse_iterations > 0 and cold.coarse_iterations == 0
        assert nested.iterations == 1
        assert np.array_equal(nested.u.values, cold.u.values)

    def test_opposite_infinities_in_one_coarse_element_clip_first(self):
        # u0 is clipped to the box before the coarse level restricts it, so
        # +inf and -inf in two fine elements of one coarse element do not
        # average to NaN, and the solve is the one given the clipped u0
        problem = ControlProblem(build_uniform_mesh(ssn._NEST_MIN), BeamParams(E=1.0, t=1e-2),
                                 LoadData(f=lambda x: 100 * np.sin(8 * np.pi * x)),
                                 ControlParams(nu=1e-6, eta=1e-5, a=-60, b=60))
        values = np.zeros(problem.mesh.n)
        values[:2] = np.inf, -np.inf
        res = ssn_solve(problem, P0Field(problem.mesh, values))
        clipped = ssn_solve(problem, P0Field(problem.mesh, np.clip(values, -60.0, 60.0)))
        assert res.converged and res.coarse_iterations > 0
        assert (res.iterations, res.coarse_iterations) == (clipped.iterations, clipped.coarse_iterations)
        assert np.array_equal(res.u.values, clipped.u.values)

    @pytest.mark.parametrize("n, t", [(10_000, 1e-3), (25_000, 1e-2)])
    def test_large_beam_takes_one_fine_solve(self, monkeypatch, n, t):
        # the thin and the thick beam of the benchmark's large-n load
        problem = ControlProblem(build_uniform_mesh(n), BeamParams(E=1.0, t=t),
                                 LoadData(f=lambda x: 100 * np.sin(8 * np.pi * x)),
                                 ControlParams(nu=1e-6, eta=1e-5, a=-60, b=60))
        nested = ssn_solve(problem)
        monkeypatch.setattr(ssn, "_NEST_MIN", n + 1)
        cold = ssn_solve(problem)
        assert nested.converged and cold.converged
        assert nested.iterations == 1 and nested.coarse_iterations > 0
        assert np.array_equal(nested.u.values, cold.u.values)

    def test_small_weight_settles_in_few_fine_solves(self):
        # cold, this solve cycles and reseeds: 67 pattern solves on 8192 elements
        problem = ControlProblem(build_uniform_mesh(8192), BeamParams(E=1.0, t=1e-2),
                                 LoadData(f=lambda x: 100 * np.sin(8 * np.pi * x)),
                                 ControlParams(nu=1e-9, eta=1e-5, a=-60, b=60))
        res = ssn_solve(problem)
        assert res.converged
        assert res.iterations <= 3 and res.coarse_iterations > 0

    def test_below_the_size_there_is_no_coarse_solve(self, monkeypatch):
        calls = _spied_solves(monkeypatch)
        res = ssn.ssn_solve(_p0_problem(build_uniform_mesh(ssn._NEST_MIN - 1)))
        assert res.converged and res.coarse_iterations == 0 and len(calls) == 1

    def test_coarse_levels_nest_and_are_counted_apart(self, monkeypatch):
        calls = _spied_solves(monkeypatch)
        monkeypatch.setattr(ssn, "_NEST_MIN", 64)
        mesh = Mesh1D(np.linspace(0.0, 1.0, 1201) ** 1.5)
        u0 = P0Field(mesh, np.linspace(-1.0, 1.0, mesh.n))
        monkeypatch.setattr(ssn, "_MAX_ITER", 30)
        res = ssn.ssn_solve(_p0_problem(mesh, nu=1e-8), u0)
        assert [m.n for m, _ in calls] == [1200, 75, 5]
        (_, fine), (mid, c1), (low, c2) = calls
        # u0 is restricted level by level
        assert fine is u0
        assert c1.mesh is mid and np.array_equal(c1.values, restrict_p0(u0, mid).values)
        assert c2.mesh is low and np.array_equal(c2.values, restrict_p0(c1, low).values)
        assert np.array_equal(mid.nodes, coarsen(mesh, 16).nodes)
        assert res.coarse_iterations > 0 and len(res.residual_history) <= 30


class TestSeed:
    @pytest.mark.parametrize("n, length", [(50, 2.0), (25, 0.5)])
    def test_seed_on_another_interval_is_rejected_before_any_solve(self, monkeypatch, n, length):
        problem = toy_problem(nu=1e-8)
        seed = ssn_solve(replace(problem, mesh=build_uniform_mesh(n, length)))

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a pattern from a seed on another interval")

        monkeypatch.setattr(_PatternSolver, "solve", no_solve)
        with pytest.raises(ValueError, match="different interval"):
            ssn_solve(problem, seed=seed)

    def test_coarse_seed_is_the_nested_solve(self, monkeypatch):
        # nesting is the seed rule with the coarse solve as the seed; a
        # given seed makes no coarse solve, and its work is not counted again
        problem = _p0_problem(Mesh1D(np.linspace(0.0, 1.0, ssn._NEST_MIN + 6) ** 1.5))
        nested = ssn_solve(problem)
        seed = ssn_solve(problem.restricted(coarsen(problem.mesh, ssn._NEST_K)))
        calls = _spied_solves(monkeypatch)
        seeded = ssn.ssn_solve(problem, seed=seed)
        assert len(calls) == 1
        assert seeded.coarse_iterations == 0
        assert nested.coarse_iterations == seed.iterations + seed.coarse_iterations
        assert (seeded.iterations, seeded.stop_reason) == (nested.iterations, nested.stop_reason)
        assert np.array_equal(seeded.u.values, nested.u.values)

    @pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 76), np.linspace(0.0, 1.0, 801) ** 1.5],
                             ids=["coarser", "finer_graded"])
    def test_cycling_seeded_loop_reseeds_at_the_seed_control(self, monkeypatch, nodes):
        # at nu = 1e-12 the seeded main loop still cycles; the reseed is
        # centered at the seed's control in the seed element holding each
        # element's midpoint, and it settles on the cold control
        problem = _cycling_sine_problem()
        cold = ssn_solve(problem)
        seed = ssn_solve(replace(problem, mesh=Mesh1D(nodes)))
        centers = []
        reseed = ssn._continuation_seed

        def spy(ps, z, tau, c, budget):
            centers.append(c)
            return reseed(ps, z, tau, c, budget)

        monkeypatch.setattr(ssn, "_continuation_seed", spy)
        res = ssn_solve(problem, seed=seed)
        mid = problem.mesh.midpoints
        holder = np.argmax((nodes[:-1, None] < mid) & (mid <= nodes[1:, None]), axis=0)
        assert len(centers) == 1
        assert np.array_equal(centers[0], seed.u.values[holder])
        assert res.converged and res.coarse_iterations == 0
        assert np.array_equal(res.u.values, cold.u.values)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_poor_seed_costs_solves_not_the_control(self, n):
        # the standard scheme locks at t = 1e-3, so its 512-element solve is a
        # poor seed for a locking-free cell: it costs more solves than the
        # locking-free reference, and the cell still returns the cold control
        cfg = load_config(CONFIGS / "locking.ini")
        std, ref = (ssn_solve(build_problem(cfg, n=512, thickness=1e-3, scheme=s))
                    for s in ("standard", "locking_free"))
        problem = build_problem(cfg, n=n, thickness=1e-3, scheme="locking_free")
        cold, good, poor = ssn_solve(problem), ssn_solve(problem, seed=ref), ssn_solve(problem, seed=std)
        assert good.iterations == 1 < poor.iterations
        assert good.converged and poor.converged
        assert np.array_equal(good.u.values, cold.u.values)
        assert np.array_equal(poor.u.values, cold.u.values)


def _runs(solves):
    """The recorded solves grouped into runs: (weight, shifted, length)."""
    return [(*key, len(list(run))) for key, run in itertools.groupby(solves, key=lambda s: s[1:])]


class TestWarmFirst:
    def test_shipped_sweep_weights_match_cold(self):
        # a warm-started solve starts in the reseed, centered at the previous
        # weight's control, and settles on the cold solve's pattern
        cfg = load_config(CONFIGS / "sweep.ini")
        problem = build_problem(cfg, n=150)
        prev = None
        for eta in cfg.study.etas:
            p = problem.with_control(eta=eta)
            warm, cold = ssn_solve(p, prev), ssn_solve(p)
            assert warm.converged and cold.converged, eta
            assert np.array_equal(warm.u.values, cold.u.values), eta
            prev = warm.u

    @pytest.mark.parametrize("grading", [1.0, 1.5], ids=["uniform", "graded"])
    def test_eta_ladder_matches_cold(self, grading):
        prob = toy_problem(n=40, nu=1e-8)
        prob = replace(prob, mesh=Mesh1D(np.linspace(0.0, 1.0, 41) ** grading))
        eta_star = eta_threshold(prob)
        prev = None
        for frac in (0.0, 0.12, 0.25, 0.37, 0.5, 0.63, 0.75, 0.88, 0.96, 1.05):
            p = prob.with_control(eta=frac * eta_star)
            warm, cold = ssn_solve(p, prev), ssn_solve(p)
            assert warm.converged and cold.converged, frac
            assert np.array_equal(warm.u.values, cold.u.values), frac
            prev = warm.u

    @pytest.mark.parametrize("frac", [1.01, 1.5])
    def test_zero_optimal_takes_one_solve(self, monkeypatch, frac):
        # eta > max|pbar(0)|: u = 0 is optimal and the cold loop's first
        # pattern, so a nonzero u0 does not send the solve into the reseed
        # (at eta = max|pbar(0)| the cold loop meets a float tie)
        solves = _recorded_solves(monkeypatch)
        prob = toy_problem(nu=1e-8)
        u0 = P0Field(prob.mesh, np.linspace(-5.0, 5.0, prob.mesh.n))
        res = ssn_solve(prob.with_control(eta=frac * eta_threshold(prob)), u0)
        assert res.converged and res.iterations == len(solves) == 1
        assert np.all(res.u.values == 0.0)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_probes_follow_one_solve_stages_only(self, monkeypatch, warm):
        # a probe at the true weight comes only after a stage whose first
        # classification was its fixed point; the reseed starts at the first
        # shifted solve, and a warm start skips the main loop before it
        prob = _cycling_sine_problem()
        u0 = ssn_solve(prob.with_control(eta=0.5e-5)).u if warm else None
        solves = _recorded_solves(monkeypatch)
        res = ssn_solve(prob, u0)
        assert res.converged and res.iterations == len(solves)
        runs = _runs(solves)
        first = next(i for i, (_, shifted, _) in enumerate(runs) if shifted)
        main = 0 if warm else runs[0][2]  # the main loop's solves
        assert first == (0 if warm else 1)
        assert len(res.residual_history) == main + 1  # and the settled probe's
        probes = [i for i in range(first, len(runs)) if not runs[i][1]]
        assert probes and probes[-1] == len(runs) - 1  # the reseed ends on a probe
        nu = prob.control.nu
        secant = (runs[first][0] - nu) / ssn._TAU_FIRST  # the first tau / 10
        for i in probes:
            assert runs[i][0] == nu and runs[i][2] == 1
            assert runs[i - 1][1] and runs[i - 1][2] == 1
            assert runs[i - 1][0] - nu <= secant
        # some settled or cycling stages took more solves, and no probe followed them
        assert any(shifted and length > 1 for _, shifted, length in runs)
        # nor did one-solve stages above the secant
        assert any(shifted and length == 1 and weight - nu > secant
                   for weight, shifted, length in runs)

    @pytest.mark.parametrize("seed", range(20))
    def test_probe_rule_on_random_instances(self, monkeypatch, seed):
        # seeded small instances, cold (even seeds) and warm-started from a
        # smaller weight's control (odd seeds): every probe follows a settled
        # stage of one solve whose tau is at most the first tau / 10, and
        # the solve converges
        rng = np.random.default_rng(seed)
        nodes = np.linspace(0.0, 1.0, int(rng.integers(40, 301)) + 1) ** rng.choice([1.0, 1.5])
        amp, freq, phase = rng.uniform(50.0, 150.0), rng.integers(1, 11), rng.uniform(0.0, 6.3)
        bound = rng.uniform(10.0, 80.0)
        base = ControlProblem(Mesh1D(nodes), BeamParams(E=1.0, t=10.0 ** rng.uniform(-3.0, -1.0)),
                              LoadData(f=lambda x: amp * np.sin(freq * np.pi * x + phase)),
                              ControlParams(nu=10.0 ** rng.uniform(-12.0, -7.0), eta=0.0,
                                            a=-bound, b=bound))
        eta = rng.uniform(0.05, 0.9) * eta_threshold(base)
        u0 = ssn_solve(base.with_control(eta=0.7 * eta)).u if seed % 2 else None
        runs = []  # (tau, shifted, solves, stop) of every run of the fine solve
        active_set = ssn._active_set

        def spied(ps, z, nu, cap, shift=None, visit=None):
            run = active_set(ps, z, nu, cap, shift=shift, visit=visit)
            runs.append((nu - ps.nu, shift is not None, run.solves, run.stop))
            return run

        monkeypatch.setattr(ssn, "_active_set", spied)
        res = ssn_solve(base.with_control(eta=eta), u0)
        assert res.converged
        assert res.iterations == sum(solves for _, _, solves, _ in runs)
        stages = [i for i, (_, shifted, _, _) in enumerate(runs) if shifted]
        if not stages:
            return  # the main loop settled without a reseed
        secant = runs[stages[0]][0] / ssn._TAU_FIRST
        probes = [i for i in range(stages[0], len(runs)) if not runs[i][1]]
        assert probes[-1] == len(runs) - 1 and runs[-1][3] == "fixed"  # a settled probe ends it
        for i in probes:
            assert runs[i][0] == 0.0 and runs[i][2] == 1
            tau, shifted, solves, stop = runs[i - 1]
            assert shifted and solves == 1 and stop == "fixed"
            assert tau <= secant


class TestResultInvariants:
    @pytest.mark.parametrize("stop_reason, converged", [
        ("converged", True), ("repeat_above_tol", False), ("max_iter", False)])
    def test_converged_reads_the_stop_reason(self, stop_reason, converged):
        # stop_reason is the one record of how a solve ended; a result copied
        # with another stop reason reads it
        res = ssn_solve(toy_problem(nu=1e-4, eta=1e-4))
        assert res.converged and res.stop_reason == "converged"
        assert replace(res, stop_reason=stop_reason).converged is converged

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

    def test_initial_guess_invariance(self):
        prob = toy_problem(nu=1e-6, bound=12.0)
        p = prob.with_control(eta=0.25 * eta_threshold(prob))
        a, b = p.bounds
        runs = [
            ssn_solve(p),
            ssn_solve(p, P0Field(p.mesh, a.copy())),
            ssn_solve(p, P0Field(p.mesh, b.copy())),
        ]
        assert all(r.converged for r in runs)
        for other in runs[1:]:
            assert l2_diff_p0(runs[0].u, other.u) <= 1e-8

    @pytest.mark.parametrize("instance", ["thin_toy", "fine_sine"])
    def test_returned_point_meets_tol(self, instance):
        # the returned u, mu, state and adjoint are the pattern solve whose
        # residual passed the stopping test, so C(u, mu) meets tol there too;
        # re-solving the state and adjoint after the loop left it at 2.8e-8
        # (thin toy) and 2.7e-10 (n = 2e4, t = 1e-3)
        if instance == "thin_toy":
            prob = toy_problem(n=200, nu=1e-4, t=1e-5)
            prob = prob.with_control(eta=0.6 * eta_threshold(prob))
        else:
            prob = ControlProblem(build_uniform_mesh(20_000), BeamParams(E=1.0, t=1e-3),
                                  LoadData(f=lambda x: 100.0 * np.sin(8.0 * np.pi * x)),
                                  ControlParams(nu=1e-6, eta=1e-5, a=-60.0, b=60.0))
        res = ssn_solve(prob)
        assert res.converged
        nu, eta = prob.control.nu, prob.control.eta
        c = complementarity_values(res.u.values, res.mu.values, *prob.bounds, nu, eta)
        assert np.max(np.abs(c)) / max(1.0, nu) <= ssn._TOL
        if instance == "thin_toy":
            assert variational_inequality_residual(res.u, res.adjoint.p, prob.control) <= 1e-12

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
    return p1_interpolant(mesh, fn)


class TestTargetKinds:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("kind", ["scalar", "callable", "p0", "p1"])
    def test_solve_converges_and_is_certified(self, kind, scheme):
        base = toy_problem(nu=1e-4, scheme=scheme)
        mesh = base.mesh
        loads = LoadData(f=base.loads.f,
                         w_d=_target(kind, mesh, lambda x: 0.01 * np.sin(np.pi * x)))
        prob = ControlProblem(mesh, base.beam, loads, base.control, scheme=scheme)
        prob = prob.with_control(eta=0.3 * eta_threshold(prob))
        res = ssn_solve(prob)
        assert res.converged
        out = kkt_residual(prob, res.u)
        assert out["complementarity"] <= 1e-8 and out["vi"] <= 1e-8
        orc = prox_gradient_solve(prob)
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
        assert prob.cost(res.u).total < prob.cost(P0Field.zeros(prob.mesh)).total


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
        A, rhs, free = pattern_system(prob, branches)
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

    def test_all_fixed_pattern_is_block_triangular(self):
        prob = toy_problem(n=6)
        s = prob.system
        A, rhs, free = pattern_system(prob, np.full(6, BRANCH_ZERO))
        assert free.size == 0
        assert rhs.shape == (2 * 2 * (prob.mesh.n - 1),)
        assert (A != sp.bmat([[s.K, None], [s.Mt, s.K]])).nnz == 0


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
        LoadData(f=lambda x: 100.0 * np.sin(3.0 * x), w_d=lambda x: 0.01 * x),
        ControlParams(nu=nu, eta=1e-3, a=-5.0, b=5.0),
        scheme=draw(st.sampled_from(SCHEMES)),
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
        A, rhs, free = pattern_system(problem.with_control(nu=nu_eff), branches)
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
        pbar = problem.averaged_adjoint(problem.solve_state(P0Field.zeros(problem.mesh))).values
        branches = classify_branches(pbar, *problem.bounds, c.nu, c.eta)
        calls = []
        dgbtrs = ssn.dgbtrs

        def counted(*args, **kwargs):
            calls.append(1)
            return dgbtrs(*args, **kwargs)

        monkeypatch.setattr(ssn, "dgbtrs", counted)
        x, y, u = _PatternSolver(problem).solve(branches)
        assert len(calls) == 2  # the solve and one refinement step
        A, rhs, free = pattern_system(problem, branches)
        assert free.size > 0
        sol = np.concatenate([x, y, u[free]])
        scale = abs(A) @ np.abs(sol) + np.abs(rhs)
        assert np.max(np.abs(A @ sol - rhs) / scale) <= 8 * self.EPS

    @given(pattern_cases())
    @example((ControlProblem(build_uniform_mesh(2), BeamParams(E=1.0, t=1e-2),
                             LoadData(f=lambda x: 100.0 * np.sin(3.0 * x)),
                             ControlParams(nu=1e-6, eta=1e-3, a=-5.0, b=5.0)),
              np.array([BRANCH_POS, BRANCH_UPPER]), 1e-6, None))  # the narrower band of n = 2
    def test_band_is_the_row_scaled_matrix(self, case):
        # built column by column from the blocks, independently of the band
        # writer, then compared entry by entry at the widths the solver
        # derived; the storage starts as NaN, as a factor left in it would,
        # and small chunks cross chunk boundaries
        problem, branches, nu_eff, _ = case
        is_free = (branches == BRANCH_POS) | (branches == BRANCH_NEG)
        ps = _PatternSolver(problem)
        size = ps.scale.size
        A = np.column_stack([ps.scale * ps._apply(is_free, nu_eff, e) for e in np.eye(size)])
        # the clamped end's four slots, which no block reaches: unit rows and columns
        clamped = np.arange(size) >= size - 4
        assert not A[clamped].any() and not A[:, clamped].any()
        A[clamped, clamped] = 1.0
        i, j = np.indices(A.shape)
        inside = (-ps.ku <= i - j) & (i - j <= ps.kl)
        assert not A[~inside].any()
        expected = np.zeros((ps.kl + ps.ku + 1, size))
        expected[ps.ku + (i - j)[inside], j[inside]] = A[inside]
        for chunk in (1, 3, ssn._CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ssn, "_CHUNK", chunk)
                ps.ab.fill(np.nan)
                assert np.array_equal(ps._fill(is_free, nu_eff)[ps.kl:], expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 37, 600, 5000])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("grading", [1.0, 3.0])
    @pytest.mark.parametrize("t", [1.0, 1e-5])
    def test_band_widths(self, n, scheme, grading, t):
        # the widths the layout gives: the tracking mass reaches 7
        # subdiagonals and the stiffness 6 superdiagonals from n = 3 on; one
        # interior node has neither a previous nor a next node
        problem = ControlProblem(Mesh1D(np.linspace(0.0, 1.0, n + 1) ** grading),
                                 BeamParams(E=1.0, t=t), LoadData(f=lambda x: np.sin(3.0 * x)),
                                 ControlParams(nu=1e-6, eta=1e-3, a=-5.0, b=5.0), scheme=scheme)
        ps = _PatternSolver(problem)
        assert (ps.kl, ps.ku) == ((7, 6) if n >= 3 else (2, 4))
        assert ps.ab.shape == (2 * ps.kl + ps.ku + 1, 5 * n)

    def test_band_memory_is_its_storage(self):
        # the large-n benchmark's sine load at n = 2e4 with every other
        # element free: building the pattern solver and writing one pattern
        # allocates little beyond the LAPACK band storage itself
        n = 20_000
        problem = ControlProblem(build_uniform_mesh(n), BeamParams(E=1.0, t=1e-2),
                                 LoadData(f=lambda x: 100.0 * np.sin(8.0 * np.pi * x)),
                                 ControlParams(nu=1e-6, eta=1e-5, a=-60.0, b=60.0))
        problem.system  # the blocks are built before tracing, as in a solve
        tracemalloc.start()
        try:
            ps = _PatternSolver(problem)
            ps._fill(np.arange(n) % 2 == 0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * ps.ab.nbytes

    def test_solver_keeps_only_the_rows_it_reads(self):
        # beside the band storage the solver keeps the row scales, the
        # control entries at both end nodes and copies of the two rows of
        # Mt its table reads (n entries each, one row read twice), not all
        # of Mt's band or a second copy of the scales
        n = 100_000
        problem = ControlProblem(build_uniform_mesh(n), BeamParams(E=1.0, t=1e-2),
                                 LoadData(f=lambda x: 100.0 * np.sin(8.0 * np.pi * x)),
                                 ControlParams(nu=1e-6, eta=1e-5, a=-60.0, b=60.0))
        problem.system
        tracemalloc.start()
        try:
            ps = _PatternSolver(problem)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = ps.ab.nbytes + ps.scale.nbytes + sum(row[2].nbytes for row in ps.controls)
        assert kept <= arrays + 3 * n * 8 + 100_000

    def test_zero_pivot_raises(self):
        # without stiffness the rotation columns are empty (no theta
        # tracking term), so dgbtrf meets an exact zero pivot
        problem = toy_problem(n=6, nu=1e-3)
        s = problem.system
        s.operator = SimpleNamespace(K_band=np.zeros_like(s.operator.K_band))
        s.K = sp.csr_matrix(s.K.shape)
        with pytest.raises(LinearSolveError):
            _PatternSolver(problem).solve(np.full(6, BRANCH_POS))


class TestOracleAgreement:
    def test_midsize_sweep_point_matches_prox_oracle(self):
        # 50-element variant of the eta-sweep configuration at the weight
        # scale where the first elements switch off
        cfg = load_config(CONFIGS / "sweep.ini")
        prob = build_problem(cfg, n=50)
        eta_star = eta_threshold(prob)
        p = prob.with_control(eta=eta_star / 9.0)
        res = ssn_solve(p)
        assert res.converged
        orc = prox_gradient_solve(p)
        assert orc.certified
        assert l2_diff_p0(res.u, orc.u) <= 1e-8
        assert 0 < np.count_nonzero(res.u.values == 0.0) < 50

    def test_no_factorization_failures_across_weight_ladder(self):
        # fractions avoid the exact shutoff weight: there the optimum parks
        # an element precisely on a branch edge and the float tie can
        # alternate patterns (an honest non-convergence, not a crash)
        prob = toy_problem(n=40, nu=1e-6)
        eta_star = eta_threshold(prob)
        prev = None
        for frac in (0.0, 0.12, 0.25, 0.37, 0.5, 0.63, 0.75, 0.88, 0.96, 1.05):
            cfgp = prob.with_control(eta=frac * eta_star)
            res = ssn_solve(cfgp, prev)
            assert res.converged, frac
            prev = res.u
        assert np.count_nonzero(res.u.values == 0.0) == 40  # past the shutoff weight
