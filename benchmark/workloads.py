"""The three benchmark workloads: seeded inputs, operations and their checks.

Each ``make_*`` function builds one round of operations from the seed.  An
operation is a zero-argument callable that does its work through a public
sparsebeam entry point, checks the output, and returns the list of check
failures (empty when the operation is correct).  The ``check_*`` functions
take plain results so that ``selftest.py`` can feed them corrupted ones.

No check compares against a stored output.  Each uses a property the method
must have (optimality certificates, monotonicity in the L1 weight, the
zero-control threshold, convergence orders, the locking gap) or a
computation made apart from the solve (the first-order oracle, finite
differences, the dense reference of ``dense_ref``).

sparsebeam's entry points are called through their modules (``ssn.ssn_solve``),
so that the wrappers ``tracing`` installs there see every call.
"""
from __future__ import annotations

import configparser
import csv
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from sparsebeam import cli, oracles, ssn
from sparsebeam.config import build_problem, load_config
from sparsebeam.control import ControlParams
from sparsebeam.fem import BeamParams, LoadData
from sparsebeam.meshes import P0Field, build_uniform_mesh, l2_diff_p0
from sparsebeam.problem import ControlProblem

import dense_ref

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
EPS = np.finfo(float).eps

Operation = Callable[[], List[str]]


# ---------------------------------------------------------------- checks

def roundoff_slack(n: int, t: float) -> float:
    """Relative roundoff floor of the averaged adjoint.

    The shear block of the stiffness scales like 1/(h t^2) against a bending
    block of order one.  On the large_n beams the complementarity of the
    returned point, relative to eta + max|pbar|, measured between 1.4 and 11
    times eps * n / t^2 (3.1e-5 at n = 1e5, t = 1e-3; 2.3e-6 at n = 1e5,
    t = 1e-2).  The slack is 100 times eps * n / t^2, and never below 1e-12.
    """
    return max(100.0 * EPS * n / t**2, 1e-12)


def check_kkt(u, mu, nu, eta, a, b, rel_slack) -> List[str]:
    """Sign, box and slackness conditions of nu*u + mu = pbar, branch by branch."""
    u, mu = np.asarray(u, float), np.asarray(mu, float)
    sp = rel_slack * (eta + np.max(np.abs(nu * u + mu)))
    su = 1e-10 * (1.0 + np.max(np.abs(u)))
    out = []
    if np.any(u < a - su) or np.any(u > b + su):
        out.append("control leaves the box")
    zero = np.abs(u) <= su
    upper = np.abs(u - b) <= su
    lower = np.abs(u - a) <= su
    pos = (u > su) & ~upper
    neg = (u < -su) & ~lower
    if np.any(np.abs(mu[zero]) > eta + sp):
        out.append("zero control with |mu| > eta")
    if np.any(np.abs(mu[pos] - eta) > sp) or np.any(np.abs(mu[neg] + eta) > sp):
        out.append("free control with mu != eta*sign(u)")
    if np.any(mu[upper & ~zero] < eta - sp) or np.any(mu[lower & ~zero] > -eta + sp):
        out.append("bound control with a multiplier of the wrong sign")
    return out


def check_multipliers(u, mult, eta, a, b, rel_slack) -> List[str]:
    """The split mu = lam + lam_b - lam_a returned with a solve."""
    lam, la, lb, mu = (np.asarray(f.values) for f in (mult.lam, mult.lam_a, mult.lam_b, mult.mu))
    sp = rel_slack * (eta + np.max(np.abs(mu)))
    su = 1e-10 * (1.0 + np.max(np.abs(u)))
    out = []
    if np.max(np.abs(lam + lb - la - mu)) > sp:
        out.append("multiplier split does not add up to mu")
    if np.any(la < 0) or np.any(lb < 0) or np.any(np.abs(lam) > eta * (1 + 1e-12)):
        out.append("multiplier sign or size violated")
    if np.any(lb[u < b - su] > sp) or np.any(la[u > a + su] > sp):
        out.append("bound multiplier off its bound (slackness)")
    return out


def pointwise_map(pbar, nu, eta, a, b):
    return np.clip(np.sign(pbar) * np.maximum(np.abs(pbar) - eta, 0.0) / nu, a, b)


def read_rows(path: Path) -> List[Dict[str, str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_field(path: Path) -> np.ndarray:
    return np.loadtxt(path, comments="#")[:, 1]


def check_solve_outputs(out: Path, nu, eta, a, b, t) -> List[str]:
    u = read_field(out / "u.dat")
    p = read_field(out / "p.dat")
    pbar = 0.5 * (p[:-1] + p[1:])
    errs = check_kkt(u, pbar - nu * u, nu, eta, a, b, roundoff_slack(u.size, t))
    if read_rows(out / "summary.csv")[0]["converged"] != "1":
        errs.append("solve not converged")
    return errs


def check_sweep(path: Path, n: int, zero_threshold: float) -> List[str]:
    rows = read_rows(path)
    eta = np.array([float(r["eta"]) for r in rows])
    cost = np.array([float(r["cost"]) for r in rows])
    null = np.array([int(r["null"]) for r in rows])
    out = []
    if not all(r["converged"] == "1" for r in rows):
        out.append("a sweep solve did not converge")
    if np.any(np.diff(cost) < 0) or np.any(np.diff(null) < 0):
        out.append("cost or zero count decreases with eta")
    # u = 0 is optimal iff |pbar_j(0)| <= eta for every element j
    if not np.array_equal(null == n, eta >= zero_threshold):
        out.append("zero control does not start at eta = max|pbar(0)|")
    return out


def check_slopes(path: Path) -> List[str]:
    slopes = {r["quantity"]: float(r["slope"]) for r in read_rows(path)}
    rows = read_rows(path.parent / "convergence.csv")
    out = []
    if not all(r["converged"] == "1" for r in rows):
        out.append("a convergence solve did not converge")
    if abs(slopes["control"] - 1.0) > 0.25 or abs(slopes["state"] - 2.0) > 0.25:
        out.append(f"rates off order (control {slopes['control']}, state {slopes['state']})")
    return out


def check_locking(path: Path) -> List[str]:
    rows = read_rows(path)
    err = {(r["scheme"], float(r["thickness"]), int(r["n"])): float(r["control_error"])
           for r in rows}
    out = []
    if not all(r["converged"] == "1" for r in rows):
        out.append("a locking solve did not converge")
    if not err[("standard", 0.001, 64)] >= 10.0 * err[("locking_free", 0.001, 64)]:
        out.append("standard scheme not locked at t = 1e-3, n = 64")
    return out


def check_large_solve(problem: ControlProblem, res) -> List[str]:
    """Convergence, the returned multipliers, and u against its own adjoint."""
    if not res.converged:
        return ["not converged"]
    c = problem.control
    a, b = problem.bounds
    slack = roundoff_slack(problem.mesh.n, problem.beam.t)
    u = res.u.values
    out = check_multipliers(u, res.multipliers, c.eta, a, b, slack)
    out += check_kkt(u, res.mu.values, c.nu, c.eta, a, b, slack)
    pbar = problem.averaged_adjoint(problem.solve_state(res.u)).values
    tol = slack * (c.eta + np.max(np.abs(pbar))) / c.nu
    if np.max(np.abs(u - pointwise_map(pbar, c.nu, c.eta, a, b))) > tol:
        out.append("control is not the pointwise map of its own adjoint")
    return out


def check_ladder(controls: List[P0Field]) -> List[str]:
    """Controls on meshes h, h/2, h/4 of one beam close in at first order."""
    d1 = l2_diff_p0(controls[0], controls[1])
    d2 = l2_diff_p0(controls[1], controls[2])
    if not 1.5 * d2 <= d1 <= 2.7 * d2:
        return [f"mesh differences {d1:.3e}, {d2:.3e} do not halve with h"]
    return []


def check_certified(problem: ControlProblem, res, oracle, fd_dev: float) -> List[str]:
    out = []
    if not res.converged:
        out.append("not converged")
    if not oracle.certified:
        out.append("oracle did not certify")
    rq = oracles.ReducedQuadratic(problem)
    gap = abs(rq.partial_objective(res.u.values) - rq.partial_objective(oracle.u.values))
    if gap / max(1.0, problem.cost(res.u, res.state).total) > 1e-12:
        out.append(f"objective gap {gap:.2e} to the oracle")
    if not fd_dev <= 1e-6:
        out.append(f"finite-difference gradient deviation {fd_dev:.2e}")
    return out


def check_dense(inst: dense_ref.DenseInstance, u, ref: dense_ref.DenseSolution) -> List[str]:
    """The SSN objective, evaluated in the dense model, against the reference."""
    u = np.asarray(u, float)
    if np.any(np.abs(u) > inst.bound * (1.0 + 1e-12)):
        return ["control leaves the box"]
    J = dense_ref.objective(inst, u)
    roundoff = 1e-12 * abs(ref.J)
    if J > ref.J + roundoff:
        return [f"objective {J!r} above the dense reference {ref.J!r}"]
    if J < ref.J - ref.gap - roundoff:
        return [f"objective {J!r} below the reference's lower bound"]
    return []


# ---------------------------------------------------------------- studies

def _ini_values(path: Path):
    cp = configparser.ConfigParser()
    cp.read(path)
    c = cp["control"]
    return (float(c["nu"]), float(c["eta"]), float(c["lower"]), float(c["upper"]),
            float(cp["material"]["thickness"]))


def make_studies(seed: int, tmp: Path) -> List[Operation]:
    """The shipped studies through cli.main; the seed orders them."""
    thin = tmp / "convergence_thin.ini"
    thin.write_text((CONFIGS / "convergence.ini").read_text()
                    .replace("thickness = 0.01", "thickness = 0.001"))
    sweep_problem = build_problem(load_config(CONFIGS / "sweep.ini"))
    pbar0 = sweep_problem.averaged_adjoint(sweep_problem.solve_state()).values
    zero_threshold = float(np.max(np.abs(pbar0)))
    solve_values = _ini_values(CONFIGS / "solve.ini")

    def study(command, config, check):
        out = tmp / f"{command}-{Path(config).stem}"

        def op():
            argv = [command, "--config", str(config), "--out", str(out)]
            if command in ("convergence", "locking"):
                argv += ["--jobs", "1"]
            code = cli.main(argv)
            return ([f"exit code {code}"] if code != 0 else []) + check(out)

        return op

    ops = [
        study("solve", CONFIGS / "solve.ini",
              lambda out: check_solve_outputs(out, *solve_values)),
        study("sweep", CONFIGS / "sweep.ini",
              lambda out: check_sweep(out / "sweep.csv", sweep_problem.mesh.n, zero_threshold)),
        study("convergence", CONFIGS / "convergence.ini",
              lambda out: check_slopes(out / "convergence_slopes.csv")),
        study("convergence", thin, lambda out: check_slopes(out / "convergence_slopes.csv")),
        study("locking", CONFIGS / "locking.ini", lambda out: check_locking(out / "locking.csv")),
    ]
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


# ---------------------------------------------------------------- large_n

LARGE_THICK = (25_000, 50_000, 100_000)  # a ladder h, h/2, h/4
LARGE_THIN = (10_000, 20_000)


def sine_problem(n, t, amp, freq=8, phase=0.0, nu=1e-6, eta=1e-5, bound=60.0):
    load = LoadData(f=lambda x: amp * np.sin(freq * np.pi * x + phase))
    return ControlProblem(build_uniform_mesh(n, 1.0), BeamParams(E=1.0, t=t), load,
                          ControlParams(nu=nu, eta=eta, a=-bound, b=bound))


def exact_scale(rng) -> float:
    """A seeded sign and power of two.

    Multiplying a problem's load, bounds and eta by it carries the problem to
    an equivalent one in floating point: every iterate is scaled exactly, so
    the branch patterns, iteration counts and work of a solve do not depend
    on the seed.  Redrawing instances per seed instead moved the work of a
    certify round by up to a factor 1.8, because the reseed and FISTA counts
    react chaotically to small changes of the data; the spread between seeds
    would then not be the machine's.
    """
    return float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-2, 3))


def make_large_n(seed: int) -> List[Operation]:
    """Cold solves of f = 100 s sin(8 pi x), bounds 60|s|, eta = 1e-5 |s|,
    with a seeded exact scale s per beam.

    At nu = 1e-6 the plain active-set loop terminates on this load without
    the reseed (5 or 6 pattern solves at every n tried).
    """
    rng = np.random.default_rng(seed)
    ladder: List[P0Field] = []

    def solve(n, t, scale, rung):
        def op():
            # a fresh problem each time, so the operator is built cold
            problem = sine_problem(n, t, 100.0 * scale, eta=1e-5 * abs(scale),
                                   bound=60.0 * abs(scale))
            res = ssn.ssn_solve(problem)
            errs = check_large_solve(problem, res)
            if rung is not None:
                if rung == 0:
                    ladder.clear()
                ladder.append(res.u)
                if rung == len(LARGE_THICK) - 1:
                    errs += check_ladder(ladder) if len(ladder) == len(LARGE_THICK) \
                        else ["ladder incomplete"]
            return errs

        return op

    thick, thin = exact_scale(rng), exact_scale(rng)
    ops = [solve(n, 1e-2, thick, k) for k, n in enumerate(LARGE_THICK)]
    ops += [solve(n, 1e-3, thin, None) for n in LARGE_THIN]
    return ops


# ---------------------------------------------------------------- certify

SKELETON_SEED = 20171707
CERTIFY_INSTANCES = 8
DENSE_INSTANCES = 3


def certify_skeleton(count: int = CERTIFY_INSTANCES):
    """Instances drawn once from a fixed stream, stratified so each round
    covers n in [256, 768], log10(nu) in [-9, -6], the eta fraction in
    [0.05, 0.9], and both thicknesses."""
    rng = np.random.default_rng(SKELETON_SEED)
    nu_bin, frac_bin = rng.permutation(count), rng.permutation(count)
    out = []
    for i in range(count):
        out.append(dict(
            n=int(256 + 512 * (i + rng.uniform()) / count),
            nu=float(10.0 ** (-9.0 + 3.0 * (nu_bin[i] + rng.uniform()) / count)),
            t=(1e-2, 1e-3)[i % 2],
            amp=float(rng.uniform(50.0, 150.0)),
            freq=int(rng.integers(2, 11)),
            phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            frac=float(0.05 + 0.85 * (frac_bin[i] + rng.uniform()) / count),
        ))
    return out


def _with_eta_fraction(problem: ControlProblem, frac: float) -> ControlProblem:
    """eta as a fraction of the zero-control threshold max|pbar(0)|."""
    pbar0 = problem.averaged_adjoint(problem.solve_state()).values
    return problem.with_control(eta=frac * float(np.max(np.abs(pbar0))))


def _cold(problem: ControlProblem) -> ControlProblem:
    """A copy without the cached operator, so each round factors it again."""
    return ControlProblem(problem.mesh, problem.beam, problem.loads, problem.control)


def make_certify(seed: int) -> List[Operation]:
    """Skeleton instances under a seeded exact scale each, plus dense
    instances drawn from the seed."""
    rng = np.random.default_rng(seed)
    ops: List[Operation] = []
    for spec in certify_skeleton():
        scale = exact_scale(rng)
        base = sine_problem(spec["n"], spec["t"], scale * spec["amp"], spec["freq"],
                            spec["phase"], nu=spec["nu"], eta=0.0, bound=60.0 * abs(scale))
        problem = _with_eta_fraction(base, spec["frac"])
        fd_seed = int(rng.integers(2**31))

        def op(problem=problem, fd_seed=fd_seed):
            problem = _cold(problem)
            res = ssn.ssn_solve(problem)
            oracle = oracles.prox_gradient_solve(problem)
            # the smooth reduced cost is quadratic, so any step is exact up to
            # roundoff, which falls with the step: take 1% of the box
            fd = oracles.fd_gradient_check(problem, res.u, step=0.01 * problem.control.b,
                                           rng=np.random.default_rng(fd_seed))
            return check_certified(problem, res, oracle, fd)

        ops.append(op)

    for _ in range(DENSE_INSTANCES):
        n = int(rng.integers(16, 41))
        t = float(rng.choice([1e-2, 1e-3]))
        mesh = build_uniform_mesh(n, 1.0)
        f = rng.uniform(50.0, 150.0) * np.sin(
            rng.integers(1, 6) * np.pi * mesh.midpoints + rng.uniform(0.0, 2.0 * np.pi))
        beam = BeamParams(E=1.0, t=t)
        bound = float(rng.uniform(5.0, 60.0))
        base = ControlProblem(mesh, beam, LoadData(f=P0Field(mesh, f)), ControlParams(
            nu=float(10.0 ** rng.uniform(-3.0, -2.0)), eta=0.0, a=-bound, b=bound))
        problem = _with_eta_fraction(base, float(rng.uniform(0.1, 0.8)))
        c = problem.control
        inst = dense_ref.DenseInstance(n=n, E=beam.E, t=t, kappa=beam.kappa, nu=c.nu,
                                       eta=c.eta, bound=bound, f=f)

        def dense_op(problem=problem, inst=inst):
            res = ssn.ssn_solve(_cold(problem))
            errs = [] if res.converged else ["not converged"]
            return errs + check_dense(inst, res.u.values, dense_ref.solve(inst))

        ops.append(dense_op)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def make(workload: str, seed: int, tmp: Path) -> List[Operation]:
    if workload == "studies":
        return make_studies(seed, tmp)
    if workload == "large_n":
        return make_large_n(seed)
    return make_certify(seed)
