"""A fixed calibration kernel that measures how fast the machine runs right now.

The benchmark's machine is a small virtual machine shared with other
tenants.  Its speed changes by 20 % and more for seconds to minutes at a
time, and CPU time moves with wall time, so this is slower execution, not
descheduling.  The worker times two passes of this kernel before each
operation of a round and two after the last, and ``run.py`` reports each
time scaled to a reference speed: an operation that took ``t`` seconds in a
round whose passes took ``k`` seconds (their median) counts
``t * REFERENCE_S / k``, the time it would take while the kernel takes
``REFERENCE_S``.  README.md ("Times at a reference speed") gives what this
does to the spread between runs; the raw times stay in the per-layer
metrics.

The kernel uses only Python, numpy and scipy, never sparsebeam, so a change
to sparsebeam cannot move it.  Its mix follows the benchmark's own work:
interpreter-bound Python loops, small sparse assembly and ``splu`` solves
as in a pattern solve, and dense matrix-vector products as in the oracles.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's median time on the reference machine (2-vCPU Xeon virtual
# machine, Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread) in a quiet
# phase.  The benchmark's wall_s and cpu_s are scaled to this speed.
REFERENCE_S = 0.025

_N = 600
_rng = np.random.default_rng(20171707)
_DENSE = _rng.standard_normal((_N, _N)) / _N
_START = _rng.standard_normal(_N)


def _interpreter() -> float:
    s = 0.0
    for i in range(60_000):
        s += (i % 7) * 0.5
    return s


def _sparse() -> float:
    n = _N
    for k in range(4):
        d = 2.0 + np.arange(n) / (n + k)
        K = sp.diags([-np.ones(n - 1), d, -np.ones(n - 1)], [-1, 0, 1], format="csc")
        eye = 0.1 * sp.identity(n, format="csc")
        x = spla.splu(sp.bmat([[K, eye], [eye, -K]], format="csc")).solve(np.ones(2 * n))
    return float(x[0])


def _dense() -> float:
    v = _START
    for _ in range(60):
        v = _DENSE @ v
        v = v / np.linalg.norm(v)
    return float(v[0])


def kernel() -> float:
    return _interpreter() + _sparse() + _dense()


def measure():
    """Wall and CPU time of one pass of the kernel, in seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - wall, time.process_time() - cpu
