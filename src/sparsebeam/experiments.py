"""Experiment drivers: single solves, eta sweeps, locking and convergence grids.

Every CSV row produced here is re-derivable through the library API; this
module only orchestrates solves, computes cross-mesh errors, and formats
output.  Numbers are printed with 6 significant digits.  Output files carry
a provenance header of '# key = value' comment lines (no timestamps), one
per key that has a value, so identical configurations yield byte-identical
files except for the runtime column of sweeps.  The [study] lists and
ref_factor are recorded too, so a grid study's header names its meshes and
its reference mesh (ref_factor times its largest n); the grids do not read
the n it records.
"""
from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .config import KEYS, ConfigError, RunConfig, build_problem
from .fem import LOCKING_FREE, SCHEMES
from .meshes import _l2_norm_p0, l2_diff_p0, l2_diff_p1
from .ssn import SSNResult, ssn_solve

__all__ = [
    "COLUMNS",
    "run_solve",
    "run_sweep",
    "run_locking",
    "run_convergence",
    "write_csv",
    "write_field",
    "provenance_lines",
]


# ------------------------------------------------------------- formatting

def format_number(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".6g")


def provenance_lines(cfg: RunConfig) -> List[str]:
    """Comment header recording the value of every key of config.KEYS, in
    table order and defaults included, read back from the field it sets.
    A key without a value (an unset kappa_override, an empty [study] list)
    is skipped; a list is written comma-separated."""
    lines = []
    for keys in KEYS.values():
        for key, (holder, name, _) in keys.items():
            val = getattr(cfg if holder is None else getattr(cfg, holder), name)
            if val is None or val == ():
                continue
            text = ", ".join(map(format_number, val)) if isinstance(val, tuple) else format_number(val)
            lines.append(f"# {key} = {text}")
    return lines


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence],
              provenance: Sequence[str] = ()) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = list(provenance)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_field(path, coords: np.ndarray, values: np.ndarray,
                provenance: Sequence[str] = ()) -> None:
    """Two-column whitespace-separated text, reloadable as file: data."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = list(provenance)
    for x, v in zip(coords, values):
        lines.append(f"{float(x):.17g} {float(v):.17g}")
    path.write_text("\n".join(lines) + "\n")


# The CSV columns of each study, by subcommand
COLUMNS = {
    "sweep": ("eta", "cost", "l2norm", "null", "iterations", "stop_reason", "converged",
              "runtime"),
    "locking": ("scheme", "thickness", "n", "h", "control_error",
                "state_error", "iterations", "stop_reason", "converged"),
    "convergence": ("n", "h", "control_error", "state_error",
                    "adjoint_error", "iterations", "stop_reason", "converged"),
}


# ------------------------------------------------------------- helpers

def _fit_rate(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    if np.count_nonzero(keep) < 2:
        return float("nan")
    return float(np.polyfit(np.log(hs[keep]), np.log(errors[keep]), 1)[0])


# ------------------------------------------------------------- solve

def run_solve(cfg: RunConfig, out_dir) -> SSNResult:
    """Single solve; writes the five fields and a summary record."""
    problem = build_problem(cfg)
    res = ssn_solve(problem)
    out = Path(out_dir)
    prov = provenance_lines(cfg)
    mesh = problem.mesh
    write_field(out / "u.dat", mesh.midpoints, res.u.values, prov)
    write_field(out / "w.dat", mesh.nodes, res.state.w.values, prov)
    write_field(out / "theta.dat", mesh.nodes, res.state.theta.values, prov)
    write_field(out / "p.dat", mesh.nodes, res.adjoint.p.values, prov)
    write_field(out / "q.dat", mesh.nodes, res.adjoint.q.values, prov)
    cb = problem.cost(res.u, res.state)
    final_residual = res.residual_history[-1] if res.residual_history else float("nan")
    write_csv(
        out / "summary.csv",
        ["eta", "nu", "cost", "tracking_cost", "l2_cost", "l1_cost",
         "l2norm", "null", "iterations", "stop_reason", "converged", "residual"],
        [[cfg.control.eta, cfg.control.nu, cb.total, cb.tracking, cb.l2_term,
          cb.l1_term, _l2_norm_p0(res.u), np.count_nonzero(res.u.values == 0.0),
          res.iterations, res.stop_reason, res.converged, final_residual]],
        prov,
    )
    return res


# ------------------------------------------------------------- sweep

def run_sweep(cfg: RunConfig) -> List[Dict]:
    """Solves along the ascending eta list of the study.  They share one
    operator and one optimality system, and each passes the previous eta's
    control as u0, the first center of the reseed it starts in."""
    etas = cfg.study.etas
    if not etas:
        raise ConfigError("[study] etas is required for a sweep")
    if any(b < a for a, b in zip(etas, etas[1:])):
        raise ConfigError("[study] etas must be sorted ascending")
    problem = build_problem(cfg)
    rows = []
    prev_u = None
    for eta in etas:
        problem = problem.with_control(eta=eta)
        start = time.perf_counter()
        res = ssn_solve(problem, u0=prev_u)
        runtime = time.perf_counter() - start
        rows.append({
            "eta": eta,
            "cost": problem.cost(res.u, res.state).total,
            "l2norm": _l2_norm_p0(res.u),
            "null": np.count_nonzero(res.u.values == 0.0),
            "iterations": res.iterations,
            "stop_reason": res.stop_reason,
            "converged": res.converged,
            "runtime": runtime,
        })
        prev_u = res.u
    return rows


# ------------------------------------------------------------- grids

def _grid_rows(cfg: RunConfig, schemes: Sequence[str], thicknesses: Sequence[float]) -> List[Dict]:
    """Control, state and adjoint errors of every (scheme, thickness, n) cell
    against the locking-free solve of its thickness at ref_factor times the
    largest n, sorted by cell."""
    study = cfg.study

    def solve(scheme, t, n):
        return ssn_solve(build_problem(cfg, n=n, thickness=t, scheme=scheme))

    ref = {t: solve(LOCKING_FREE, t, study.ref_factor * max(study.mesh_sizes)) for t in thicknesses}
    cells = [(s, t, n) for s in schemes for t in thicknesses for n in study.mesh_sizes]
    rows = []
    for scheme, t, n in cells:
        res = solve(scheme, t, n)
        rows.append({
            "scheme": scheme,
            "thickness": t,
            "n": n,
            "h": cfg.length / n,
            "control_error": l2_diff_p0(res.u, ref[t].u),
            "state_error": l2_diff_p1(res.state.w, ref[t].state.w),
            "adjoint_error": l2_diff_p1(res.adjoint.p, ref[t].adjoint.p),
            "iterations": res.iterations,
            "stop_reason": res.stop_reason,
            "converged": res.converged,
        })
    rows.sort(key=lambda r: (r["scheme"], r["thickness"], r["n"]))
    return rows


def run_locking(cfg: RunConfig) -> List[Dict]:
    """Control errors per (scheme, thickness, n) against per-thickness
    locking-free fine-mesh references."""
    study = cfg.study
    if not study.thicknesses or not study.mesh_sizes:
        raise ConfigError("[study] thicknesses and mesh_sizes are required for a locking study")
    return _grid_rows(cfg, SCHEMES, study.thicknesses)


def run_convergence(cfg: RunConfig):
    """Control/state/adjoint errors at [material] thickness against a locking-free
    fine-mesh reference, plus fitted log-log slopes.  Returns (rows, slopes)."""
    if not cfg.study.mesh_sizes:
        raise ConfigError("[study] mesh_sizes is required for a convergence study")
    if cfg.study.thicknesses:  # it solves [material] thickness alone
        raise ConfigError("[study] thicknesses is read by a locking study only")
    rows = _grid_rows(cfg, (cfg.scheme,), (cfg.beam.t,))
    hs = [r["h"] for r in rows]
    slopes = {
        q: _fit_rate(hs, [r[f"{q}_error"] for r in rows])
        for q in ("control", "state", "adjoint")
    }
    return rows, slopes

