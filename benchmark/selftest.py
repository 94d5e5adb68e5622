"""Self-test of the benchmark's checks: each must pass a correct result and
report a corrupted one as failed.

    python3 benchmark/selftest.py

Takes a few seconds.  Exits 1 if a check rejects a correct result or
accepts a corrupted one.
"""
from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sparsebeam import cli, oracles, ssn  # noqa: E402
from sparsebeam.meshes import P0Field  # noqa: E402

import dense_ref  # noqa: E402
import workloads as W  # noqa: E402

problems = []


def expect(label, errors, should_fail):
    ok = bool(errors) == should_fail
    print(f"{'ok  ' if ok else 'BAD '} {label}: {'; '.join(errors) or 'passes'}")
    if not ok:
        problems.append(label)


def moved(u: P0Field, j: int, delta: float) -> P0Field:
    vals = u.values.copy()
    vals[j] += delta
    return P0Field(u.mesh, vals)


def free_element(u, bound):
    return int(np.flatnonzero((np.abs(u) > 1e-8) & (np.abs(u) < bound - 1e-8))[0])


def rewrite(path: Path, old: str, new: str):
    text = path.read_text()
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new, 1))


def studies(tmp: Path):
    nu, eta, a, b, t = W._ini_values(W.CONFIGS / "solve.ini")
    out = tmp / "solve"
    cli.main(["solve", "--config", str(W.CONFIGS / "solve.ini"), "--out", str(out)])
    expect("studies/solve clean", W.check_solve_outputs(out, nu, eta, a, b, t), False)
    # one element of the control moved by 1% of its bound
    u = W.read_field(out / "u.dat")
    j = free_element(u, b)
    lines = (out / "u.dat").read_text().splitlines()
    k = [i for i, ln in enumerate(lines) if not ln.startswith("#")][j]
    x, _ = lines[k].split()
    lines[k] = f"{x} {u[j] + 0.01 * b:.17g}"
    (out / "u.dat").write_text("\n".join(lines) + "\n")
    expect("studies/solve control moved", W.check_solve_outputs(out, nu, eta, a, b, t), True)

    sweep = tmp / "sweep"
    cli.main(["sweep", "--config", str(W.CONFIGS / "sweep.ini"), "--out", str(sweep)])
    problem = W.build_problem(W.load_config(W.CONFIGS / "sweep.ini"))
    thr = float(np.max(np.abs(problem.averaged_adjoint(problem.solve_state()).values)))
    csv_path = sweep / "sweep.csv"
    expect("studies/sweep clean", W.check_sweep(csv_path, problem.mesh.n, thr), False)
    largest_eta = float(W.read_rows(csv_path)[-1]["eta"])
    expect("studies/sweep threshold moved",
           W.check_sweep(csv_path, problem.mesh.n, 1.01 * largest_eta), True)
    original = csv_path.read_text()
    rows = [ln for ln in original.splitlines() if not ln.startswith("#")]
    last = rows[-1].split(",")
    last[3] = str(int(last[3]) - 1)  # one element's branch flipped off zero
    rewrite(csv_path, rows[-1], ",".join(last))
    expect("studies/sweep zero count changed", W.check_sweep(csv_path, problem.mesh.n, thr), True)
    csv_path.write_text(original)
    second = rows[2].split(",")
    second[1] = "1e9"  # a cost above the next eta's
    rewrite(csv_path, rows[2], ",".join(second))
    expect("studies/sweep cost raised", W.check_sweep(csv_path, problem.mesh.n, thr), True)

    conv = tmp / "convergence"
    cli.main(["convergence", "--config", str(W.CONFIGS / "convergence.ini"), "--out", str(conv)])
    slopes = conv / "convergence_slopes.csv"
    expect("studies/convergence clean", W.check_slopes(slopes), False)
    control = [ln for ln in slopes.read_text().splitlines() if ln.startswith("control,")][0]
    rewrite(slopes, control, "control,0.7")
    expect("studies/convergence control rate lowered", W.check_slopes(slopes), True)

    lock = tmp / "locking"
    cli.main(["locking", "--config", str(W.CONFIGS / "locking.ini"), "--out", str(lock)])
    expect("studies/locking clean", W.check_locking(lock / "locking.csv"), False)
    row = [ln for ln in (lock / "locking.csv").read_text().splitlines()
           if ln.startswith("standard,0.001,64,")][0]
    fields = row.split(",")
    fields[4] = "5"
    rewrite(lock / "locking.csv", row, ",".join(fields))
    expect("studies/locking gap shrunk", W.check_locking(lock / "locking.csv"), True)


def large_n():
    problem = W.sine_problem(10_000, 1e-2, 100.0)
    res = ssn.ssn_solve(problem)
    expect("large_n clean", W.check_large_solve(problem, res), False)
    j = free_element(res.u.values, 60.0)
    expect("large_n control moved",
           W.check_large_solve(problem, dataclasses.replace(res, u=moved(res.u, j, 0.6))), True)
    flipped = dataclasses.replace(res, mu=P0Field(res.mu.mesh, np.where(
        np.arange(res.mu.values.size) == j, -res.mu.values, res.mu.values)))
    expect("large_n branch flipped", W.check_large_solve(problem, flipped), True)
    ladder = [ssn.ssn_solve(W.sine_problem(n, 1e-2, 100.0)).u for n in (2_500, 5_000, 10_000)]
    expect("large_n ladder clean", W.check_ladder(ladder), False)
    expect("large_n ladder stalled", W.check_ladder(ladder[:2] + [moved(ladder[1], 0, 0.0)]), True)


def certify():
    spec = min(W.certify_skeleton(), key=lambda s: s["n"])
    base = W.sine_problem(spec["n"], spec["t"], spec["amp"], spec["freq"], spec["phase"],
                          nu=spec["nu"], eta=0.0)
    problem = W._with_eta_fraction(base, spec["frac"])
    res = ssn.ssn_solve(problem)
    oracle = oracles.prox_gradient_solve(problem)
    fd = oracles.fd_gradient_check(problem, res.u, step=0.6)
    expect("certify clean", W.check_certified(problem, res, oracle, fd), False)
    j = free_element(res.u.values, 60.0)
    expect("certify control moved",
           W.check_certified(problem, dataclasses.replace(res, u=moved(res.u, j, 0.6)), oracle, fd),
           True)
    expect("certify oracle not certified",
           W.check_certified(problem, res, dataclasses.replace(oracle, certified=False), fd), True)
    expect("certify gradient off", W.check_certified(problem, res, oracle, 1e-4), True)

    n, bound = 30, 20.0
    f = 100.0 * np.sin(3 * np.pi * (np.arange(n) + 0.5) / n)
    small = W.ControlProblem(W.build_uniform_mesh(n, 1.0), W.BeamParams(E=1.0, t=1e-3),
                             W.LoadData(f=P0Field(W.build_uniform_mesh(n, 1.0), f)),
                             W.ControlParams(nu=1e-3, eta=0.0, a=-bound, b=bound))
    small = W._with_eta_fraction(small, 0.3)
    c = small.control
    inst = dense_ref.DenseInstance(n=n, E=1.0, t=1e-3, kappa=small.beam.kappa, nu=c.nu,
                                   eta=c.eta, bound=bound, f=f)
    ref = dense_ref.solve(inst)
    u = ssn.ssn_solve(small).u.values
    expect("certify dense clean", W.check_dense(inst, u, ref), False)
    bad = u.copy()
    bad[free_element(u, bound)] += 0.01 * bound
    expect("certify dense control moved", W.check_dense(inst, bad, ref), True)


def main() -> int:
    runs = HERE / ".runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=runs))
    try:
        studies(tmp)
        large_n()
        certify()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            runs.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass
    print(f"{len(problems)} check(s) misbehaved" if problems else "every check behaved")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
