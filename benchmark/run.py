"""Benchmark of sparsebeam: one workload per invocation.

    python3 benchmark/run.py --workload studies|large_n|certify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh Python process
(``worker.py``) with one BLAS/OpenMP thread; two more processes only set up,
so that ``setup_s`` is a median of three.  Every operation's output is
checked.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md for what each metric means and which layer should move it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("studies", "large_n", "certify")
SETUP_PROCESSES = 3
TIMEOUT_S = 170.0

SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pattern_solves": "count"}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1.0),
                              text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError("worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    return float(statistics.median(values))


def round_time(rounds, key):
    """Raw time of one round as the sum over its operations of each
    operation's median over rounds: a slow or fast phase of a shared machine
    that hits one operation in one round does not move it."""
    return sum(median(times) for times in zip(*(r[key] for r in rounds)))


def scaled_round_time(rounds, kind):
    """Like round_time, with each operation's time scaled to the reference
    speed of calibration.py by the median of its round's calibration passes
    (two before each operation and two after the last).  A round's median
    follows the machine's slow and fast phases; a single pass is too noisy
    for that (16 to 29 ms within one round)."""
    per_round = [[t * r["reference_s"] / median(r[f"cal_{kind}_s"]) for t in r[f"op_{kind}_s"]]
                 for r in rounds]
    return sum(median(times) for times in zip(*per_round))


def end_to_end(rounds, setups, peak_rss_mb):
    plain = [r for r in rounds if not r["traced"]]
    counts = {r["pattern_solves"] for r in plain}
    if len(counts) > 1:
        print(f"warning: pattern_solves differs between rounds: {sorted(counts)}",
              file=sys.stderr)
    return {
        "wall_s": scaled_round_time(plain, "wall"),
        "cpu_s": scaled_round_time(plain, "cpu"),
        "setup_s": median([s["setup_s"] for s in setups]),
        "peak_rss_mb": peak_rss_mb,
        "pattern_solves": median([r["pattern_solves"] for r in plain]),
    }, len(plain)


def per_layer(rounds, setups):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    out["process.sys_s"] = median([r["sys_s"] for r in traced])
    out["process.minor_faults"] = median([r["minor_faults"] for r in traced])
    out["setup.import_s"] = median([s["import_s"] for s in setups])
    out["setup.inputs_s"] = median([s["inputs_s"] for s in setups])
    out["trace.overhead_s"] = round_time(traced, "op_wall_s") - round_time(plain, "op_wall_s")
    out["process.raw_wall_s"] = round_time(plain, "op_wall_s")
    out["machine.calibration_s"] = median([c for r in rounds for c in r["cal_wall_s"]])
    return out, len(traced)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms_per_pattern"):
        return "ms"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    try:
        setups = [spawn(args, deadline, setup_only=True)["setup"]
                  for _ in range(SETUP_PROCESSES - 1)]
        result = spawn(args, deadline, setup_only=False)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup"])
    rounds = result["rounds"]

    if args.trace:
        metrics, samples = per_layer(rounds, setups)
    else:
        metrics, samples = end_to_end(rounds, setups, result["peak_rss_mb"])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for msg in r["failures"]:
            print(f"failed: {msg}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed; medians over {samples} rounds "
          f"({SETUP_PROCESSES} set-ups for set-up times)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
