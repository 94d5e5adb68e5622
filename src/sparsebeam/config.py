"""Run configuration: INI files in, validated problem objects out.

Sections and keys (defaults in brackets):

    [geometry]  n (required), length [1.0]
    [material]  youngs_modulus [1.44e9], thickness [0.01],
                shear_correction [5/6], poisson [0.35], kappa_override [unset]
    [control]   nu (required), eta (required), lower [-inf], upper [inf]
    [data]      f, g, w_d  [zero]
    [solver]    scheme [locking_free], tol [1e-10], max_iter [850]
    [study]     etas, thicknesses, mesh_sizes (comma lists), ref_factor [8]

The numbers of [material], [control] and [solver] set the fields named in
KEY_FIELDS, whose defaults (BeamParams, ControlParams, SSNConfig) are the
only ones; a test pins the bracketed values through the provenance header.

Numeric values accept plain fractions ("5/6").  Data entries use a small
catalog, whose numbers must be finite:

    zero
    constant:VALUE
    sine:AMPLITUDE,FREQUENCY[,PHASE]   ->  A*sin(F*pi*x/length + P)
    file:PATH                          ->  two whitespace-separated columns
                                           (coordinate, value); element
                                           midpoints make a piecewise
                                           constant field, anything else is
                                           interpolated linearly; every entry
                                           must be finite

Unknown sections or keys are rejected, as are physically inadmissible
values; errors raise ConfigError with the offending location in the
message.  The beam, control and solver values are checked by the classes
that hold them (BeamParams, ControlParams, SSNConfig); the length, which
only the mesh holds, is checked here.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .control import ControlParams
from .fem import LOCKING_FREE, SCHEMES, BeamParams, LoadData
from .meshes import P0Field, build_uniform_mesh
from .problem import ControlProblem
from .ssn import SSNConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "build_problem",
    "realize_field",
]

# Each numeric key of [material], [control] and [solver], in the order of the
# provenance header: the RunConfig attribute that holds its section, the
# class of that attribute, and the field the key sets.
KEY_FIELDS = {
    "material": ("beam", BeamParams, {"youngs_modulus": "E", "thickness": "t",
                                      "shear_correction": "k", "poisson": "poisson",
                                      "kappa_override": "kappa_override"}),
    "control": ("control", ControlParams, {"nu": "nu", "eta": "eta", "lower": "a", "upper": "b"}),
    "solver": ("solver", SSNConfig, {"tol": "tol", "max_iter": "max_iter"}),
}

_ALLOWED = {
    "geometry": {"n", "length"},
    **{section: set(keys) for section, (_, _, keys) in KEY_FIELDS.items()},
    "data": {"f", "g", "w_d"},
    "study": {"etas", "thicknesses", "mesh_sizes", "ref_factor"},
}
_ALLOWED["solver"].add("scheme")  # the one key that is not a number


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _number(text: str, where: str) -> float:
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return float(num) / float(den)
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc


def _number_list(text: str, where: str) -> Tuple[float, ...]:
    items = [p for p in (piece.strip() for piece in text.split(",")) if p]
    if not items:
        raise ConfigError(f"{where}: empty list")
    return tuple(_number(p, where) for p in items)


def _count(value: float, where: str) -> int:
    """An element count or refinement factor: an integer of at least 2."""
    if not (value >= 2 and value.is_integer()):
        raise ConfigError(f"{where} takes integers >= 2, got {value}")
    return int(value)


@dataclass(frozen=True)
class StudyConfig:
    etas: Tuple[float, ...] = ()
    thicknesses: Tuple[float, ...] = ()
    mesh_sizes: Tuple[int, ...] = ()
    ref_factor: int = 8


@dataclass(frozen=True)
class RunConfig:
    n: int
    length: float
    beam: BeamParams
    control: ControlParams
    f: str = "zero"
    g: str = "zero"
    w_d: str = "zero"
    scheme: str = LOCKING_FREE
    solver: SSNConfig = field(default_factory=SSNConfig)
    study: StudyConfig = field(default_factory=StudyConfig)
    base_dir: Optional[Path] = None  # resolves file: entries


def _parse_spec(spec: str, where: str):
    """Split a data spec into its head and arguments: () for zero, the
    finite numbers of constant and sine, the path text of file."""
    head, colon, arg = spec.strip().partition(":")
    if head not in ("zero", "constant", "sine", "file"):
        raise ConfigError(f"{where}: unknown data spec {spec!r}")
    if head == "zero":
        if colon:
            raise ConfigError(f"{where}: 'zero' takes no arguments")
        return head, ()
    if not arg.strip():
        raise ConfigError(f"{where}: {head} needs an argument")
    if head == "file":
        return head, arg.strip()
    args = _number_list(arg, where) if head == "sine" else (_number(arg, where),)
    if head == "sine" and len(args) not in (2, 3):
        raise ConfigError(f"{where}: sine takes 2 or 3 numbers")
    if not np.all(np.isfinite(args)):
        raise ConfigError(f"{where}: {head} takes finite numbers, got {arg.strip()!r}")
    return head, args


def realize_field(spec: str, mesh, base_dir: Optional[Path] = None):
    """Turn a catalog string into load data on a concrete mesh."""
    head, args = _parse_spec(spec, "data")
    if head == "zero":
        return 0.0
    if head == "constant":
        return args[0]
    if head == "sine":
        amp, freq = args[0], args[1]
        phase = args[2] if len(args) == 3 else 0.0
        length = mesh.length
        return lambda x: amp * np.sin(freq * np.pi * np.asarray(x) / length + phase)
    path = Path(args)
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    try:
        data = np.loadtxt(path, dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:  # missing, or a non-numeric or ragged row
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError(f"field file {path} must hold two columns: coordinate, value")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"field file {path} holds non-finite values")
    coords, vals = data[:, 0], data[:, 1]
    tol = 1e-9 * max(mesh.length, 1.0)
    if vals.size == mesh.n and np.allclose(coords, mesh.midpoints, atol=tol):
        return P0Field(mesh, vals)
    if np.any(np.diff(coords) <= 0):
        raise ConfigError(f"field file {path} needs strictly increasing coordinates")
    # nodal or foreign-grid samples: interpolate
    return lambda x: np.interp(np.asarray(x, dtype=float), coords, vals)


def _section(cp: configparser.ConfigParser, section: str):
    """The KEY_FIELDS class of a section, built from the keys the file sets;
    each value is parsed first, so a parse error and a rejected value both
    name their location once."""
    _, cls, fields = KEY_FIELDS[section]
    kw = {fields[key]: _number(cp.get(section, key), f"[{section}] {key}")
          for key in fields if cp.has_option(section, key)}
    if "max_iter" in kw and kw["max_iter"].is_integer():
        kw["max_iter"] = int(kw["max_iter"])
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def load_config(path) -> RunConfig:
    path = Path(path)
    # no interpolation: a '%' in a value, as in a file path, reads literally
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:  # a duplicate, a line before any section, or a byte that is not UTF-8 fails
        read = cp.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for section in cp.sections():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _ALLOWED[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    if not cp.has_option("geometry", "n"):
        raise ConfigError("[geometry] n is required")
    n = _count(_number(cp.get("geometry", "n"), "[geometry] n"), "[geometry] n")
    length = _number(cp.get("geometry", "length", fallback="1.0"), "[geometry] length")
    if not (0 < length < np.inf):
        raise ConfigError(f"[geometry] length must be positive and finite, got {length}")

    beam = _section(cp, "material")
    for key in ("nu", "eta"):
        if not cp.has_option("control", key):
            raise ConfigError(f"[control] {key} is required")
    control = _section(cp, "control")

    specs = {}
    for key in ("f", "g", "w_d"):
        specs[key] = cp.get("data", key, fallback="zero").strip()
        _parse_spec(specs[key], f"[data] {key}")

    scheme = cp.get("solver", "scheme", fallback=LOCKING_FREE)
    if scheme not in SCHEMES:
        raise ConfigError(f"[solver] scheme must be one of {SCHEMES}")
    solver = _section(cp, "solver")

    study_kw = {}
    if cp.has_option("study", "etas"):
        study_kw["etas"] = _number_list(cp.get("study", "etas"), "[study] etas")
        if not all(0 <= e < np.inf for e in study_kw["etas"]):
            raise ConfigError("[study] etas must be nonnegative and finite")
    if cp.has_option("study", "thicknesses"):
        study_kw["thicknesses"] = _number_list(cp.get("study", "thicknesses"), "[study] thicknesses")
        if any(not (0 < t <= 1) for t in study_kw["thicknesses"]):
            raise ConfigError("[study] thicknesses must lie in (0, 1]")
    if cp.has_option("study", "mesh_sizes"):
        where = "[study] mesh_sizes"
        study_kw["mesh_sizes"] = tuple(_count(v, where)
                                       for v in _number_list(cp.get("study", "mesh_sizes"), where))
    if cp.has_option("study", "ref_factor"):
        where = "[study] ref_factor"
        study_kw["ref_factor"] = _count(_number(cp.get("study", "ref_factor"), where), where)

    return RunConfig(
        n=n,
        length=length,
        beam=beam,
        control=control,
        **specs,
        scheme=scheme,
        solver=solver,
        study=StudyConfig(**study_kw),
        base_dir=path.resolve().parent,
    )


def build_problem(cfg: RunConfig, n: Optional[int] = None, thickness: Optional[float] = None,
                  scheme: Optional[str] = None) -> ControlProblem:
    """Materialize a problem from a config, with per-study overrides."""
    mesh = build_uniform_mesh(n if n is not None else cfg.n, cfg.length)
    beam = cfg.beam if thickness is None else replace(cfg.beam, t=thickness)
    return ControlProblem(
        mesh=mesh,
        beam=beam,
        loads=LoadData(
            f=realize_field(cfg.f, mesh, cfg.base_dir),
            g=realize_field(cfg.g, mesh, cfg.base_dir),
            w_d=realize_field(cfg.w_d, mesh, cfg.base_dir),
        ),
        control=cfg.control,
        scheme=scheme if scheme is not None else cfg.scheme,
    )
