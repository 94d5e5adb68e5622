"""Seeded random set of nested solves, for comparing two versions of the solver.

Draws instances above the nesting size (n in [4096, 40000], uniform,
x^1.5- and x^2-graded meshes, t in [1e-3, 1e-1], nu in [1e-12, 1e-6],
a sine load, a box and a sparsity weight below the zero-control
threshold), solves each with `ssn_solve` and prints one JSON line per
instance: its data, the fine and coarse pattern solves, the stop reason
and a digest of the control's bytes.

The solver comes from whatever `sparsebeam` is on the path, so two
checkouts compare as

    PYTHONPATH=<old>/src python3 scripts/nested_random_set.py run > old.jsonl
    PYTHONPATH=<new>/src python3 scripts/nested_random_set.py run > new.jsonl
    python3 scripts/nested_random_set.py compare old.jsonl new.jsonl

compare prints every instance whose fine solve count changed, with its
nu, and the totals; it exits 1 if a control differs or an instance stops
converging on the new side.
"""
import argparse
import hashlib
import json
import sys
import time

import numpy as np


def instances(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for index in range(count):
        yield {
            "index": index,
            "n": int(rng.integers(4096, 40001)),
            "grading": float(rng.choice([1.0, 1.5, 2.0])),
            "t": float(10 ** rng.uniform(-3, -1)),
            "nu": float(10 ** rng.uniform(-12, -6)),
            "eta_fraction": float(rng.uniform(0.05, 0.9)),
            "amplitude": float(rng.uniform(50, 200)),
            "wavenumber": int(rng.integers(1, 9)),
            "phase": float(rng.uniform(0, 2 * np.pi)),
            "bound": float(rng.uniform(20, 100)),
        }


def build(data):
    from sparsebeam.control import ControlParams
    from sparsebeam.fem import BeamParams, LoadData
    from sparsebeam.meshes import Mesh1D, P0Field
    from sparsebeam.problem import ControlProblem

    mesh = Mesh1D(np.linspace(0.0, 1.0, data["n"] + 1) ** data["grading"])
    amplitude, k, phase = data["amplitude"], data["wavenumber"], data["phase"]
    problem = ControlProblem(mesh, BeamParams(E=1.0, t=data["t"]),
                             LoadData(f=lambda x: amplitude * np.sin(k * np.pi * x + phase)),
                             ControlParams(nu=data["nu"], eta=1.0,
                                           a=-data["bound"], b=data["bound"]))
    pbar0 = problem.averaged_adjoint(problem.solve_state(P0Field.zeros(mesh)))
    return problem.with_control(eta=data["eta_fraction"] * float(np.max(np.abs(pbar0.values))))


def digest(u):
    return hashlib.sha256(np.ascontiguousarray(u.values).tobytes()).hexdigest()[:16]


def run(args):
    from sparsebeam.ssn import ssn_solve

    for data in instances(args.seed, args.count):
        problem = build(data)
        start = time.perf_counter()
        res = ssn_solve(problem)
        line = dict(data, eta=problem.control.eta, fine=res.iterations,
                    coarse=res.coarse_iterations, stop=res.stop_reason,
                    control=digest(res.u), seconds=round(time.perf_counter() - start, 3))
        print(json.dumps(line), flush=True)


def compare(args):
    def load(path):
        with open(path) as f:
            return {r["index"]: r for r in map(json.loads, f)}

    old, new = load(args.old), load(args.new)
    if old.keys() != new.keys():
        sys.exit("the two files hold different instances")
    print("index  n      grading  nu        fine old -> new  coarse old -> new")
    bad = 0
    for i in sorted(old):
        a, b = old[i], new[i]
        if a["fine"] != b["fine"]:
            print(f"{i:5d}  {a['n']:5d}  x^{a['grading']:<4g}   {a['nu']:.2e}  "
                  f"{a['fine']:4d} -> {b['fine']:<4d}      {a['coarse']:4d} -> {b['coarse']}")
        if a["control"] != b["control"] or (a["stop"] == "converged") > (b["stop"] == "converged"):
            print(f"{i:5d}  control {a['control']} -> {b['control']}, stop {a['stop']} -> {b['stop']}")
            bad += 1
    rose = sum(new[i]["fine"] > old[i]["fine"] for i in old)
    fell = sum(new[i]["fine"] < old[i]["fine"] for i in old)
    print(f"{len(old)} instances: fine solves {sum(r['fine'] for r in old.values())} -> "
          f"{sum(r['fine'] for r in new.values())} ({fell} fell, {rose} rose), coarse solves "
          f"{sum(r['coarse'] for r in old.values())} -> {sum(r['coarse'] for r in new.values())}, "
          f"{len(old) - bad} with the same control and no lost convergence")
    sys.exit(1 if bad else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="solve the random set, one JSON line per instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=110)
    p.set_defaults(func=run)
    p = sub.add_parser("compare", help="compare two runs of the same set")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
