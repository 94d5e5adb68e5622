"""One benchmark process: set up a workload, run timed rounds, report raw figures.

    python3 benchmark/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawned-at T [--setup-only]

``--spawned-at`` is the launcher's ``time.monotonic()`` just before it
started this process, so set-up time counts interpreter start.  With
``--setup-only`` the process stops once its inputs are ready.  The last line
of standard output is one JSON object; ``run.py`` turns it into metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402  (numpy and scipy only; no sparsebeam)

# calibration passes at each point of a round; two cut the noise of a round's
# median pass against one, at about 50 ms per point
CALIBRATION_PASSES = 2


def _warm_up() -> None:
    """A tiny solve and oracle run, so lazy imports inside scipy are not
    charged to the first timed operation."""
    from sparsebeam import oracles, ssn
    from workloads import sine_problem, _with_eta_fraction

    problem = _with_eta_fraction(sine_problem(16, 1e-2, 100.0, nu=1e-6, eta=0.0), 0.3)
    ssn.ssn_solve(problem)
    oracles.prox_gradient_solve(problem)


def run_round(ops, tracer):
    tracer.reset()
    tracer.install()
    failures, op_wall, op_cpu, cals = [], [], [], []
    cal_sys_s, cal_faults = 0.0, 0

    def calibrate():
        # the machine's speed before each operation and after the last;
        # run.py scales the round's times by the median of these passes.
        # The passes' own system time and page faults (some 600 a pass) are
        # left out of the round's.
        nonlocal cal_sys_s, cal_faults
        before = resource.getrusage(resource.RUSAGE_SELF)
        cals.extend(calibration.measure() for _ in range(CALIBRATION_PASSES))
        after = resource.getrusage(resource.RUSAGE_SELF)
        cal_sys_s += after.ru_stime - before.ru_stime
        cal_faults += after.ru_minflt - before.ru_minflt

    usage = resource.getrusage(resource.RUSAGE_SELF)
    try:
        for op in ops:
            calibrate()
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                failures.append(op())
            except Exception as exc:  # an operation that raises has failed
                failures.append([f"{type(exc).__name__}: {exc}"])
            op_wall.append(time.perf_counter() - wall)
            op_cpu.append(time.process_time() - cpu)
        calibrate()
    finally:
        tracer.uninstall()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "sys_s": after.ru_stime - usage.ru_stime - cal_sys_s,
        "minor_faults": after.ru_minflt - usage.ru_minflt - cal_faults,
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "cal_wall_s": [wall for wall, _ in cals],
        "cal_cpu_s": [cpu for _, cpu in cals],
        "reference_s": calibration.REFERENCE_S,
        "pattern_solves": tracer.pattern_solves(),
        "attempted": len(ops),
        "failed": sum(1 for f in failures if f),
        "failures": [msg for f in failures for msg in f][:5],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import sparsebeam  # noqa: F401  (the package import is part of set-up)
    import tracing
    import workloads
    import_s = time.perf_counter() - t0

    runs_dir = HERE / ".runs"
    runs_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        t1 = time.perf_counter()
        ops = workloads.make(args.workload, args.seed, tmp)
        _warm_up()
        inputs_s = time.perf_counter() - t1
        setup = {"setup_s": time.monotonic() - args.spawned_at,
                 "import_s": import_s, "inputs_s": inputs_s}
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0

        counted = tracing.Tracer(tracing.COUNTED)
        layered = tracing.Tracer(tracing.LAYERS)
        rounds = []
        start = time.perf_counter()
        # whole rounds until the time is up; a traced run alternates untraced
        # and traced rounds, so the difference of their medians is the
        # tracing overhead
        while not rounds or time.perf_counter() - start < args.seconds \
                or (args.trace and len(rounds) < 2):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            tracer = layered if traced else counted
            record = run_round(ops, tracer)
            record["traced"] = traced
            if traced:
                record["layers"] = tracer.layer_metrics()
            rounds.append(record)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"setup": setup, "rounds": rounds, "peak_rss_mb": peak_rss_mb}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            runs_dir.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
