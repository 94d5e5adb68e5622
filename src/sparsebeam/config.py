"""Run configuration: INI files in, validated problem objects out.

Sections and keys (defaults in brackets):

    [geometry]  n (required), length [1.0]
    [material]  youngs_modulus [1.44e9], thickness [0.01],
                shear_correction [5/6], poisson [0.35], kappa_override [unset]
    [control]   nu (required), eta (required), lower [-inf], upper [inf]
    [data]      f, g, w_d  [zero]
    [solver]    scheme [locking_free]
    [study]     etas, thicknesses, mesh_sizes (comma lists), ref_factor [8]

KEYS declares each key once: the RunConfig attribute that holds it, the
field it sets and its parser.  The defaults are those of the holders
(RunConfig, BeamParams, ControlParams, StudyConfig) alone; a test pins the
bracketed values through the provenance header.  The solver has no keys:
its budget and stop tolerance are constants of sparsebeam.ssn.

Numeric values accept plain fractions ("5/6") and inf.  NaN is rejected
everywhere, and inf where a key's range excludes it: of the numeric keys,
only lower and upper take an infinity, -inf and inf being their defaults.
Data entries use a small catalog, whose numbers must be finite:

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
message.  A value that no parser accepts names its "[section] key"; the
beam and control values are then checked together by the classes that
hold them, and a value they reject names its "[section]".  A file
with several errors reports one: its first unknown key or unparsable value,
in file order, else a missing required key, else a rejected section.
"""
from __future__ import annotations

import configparser
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .control import ControlParams
from .fem import LOCKING_FREE, SCHEMES, BeamParams, LoadData
from .meshes import P0Field, build_uniform_mesh
from .problem import ControlProblem

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "build_problem",
]


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


def _count(text: str, where: str) -> int:
    """An element count or refinement factor: an integer of at least 2."""
    value = _number(text, where)
    if not (value >= 2 and value.is_integer()):
        raise ConfigError(f"{where} takes integers >= 2, got {value}")
    return int(value)


def _number_list(text: str, where: str, item=_number) -> tuple:
    items = [p for p in (piece.strip() for piece in text.split(",")) if p]
    if not items:
        raise ConfigError(f"{where}: empty list")
    return tuple(item(p, where) for p in items)


def _length(text: str, where: str) -> float:
    length = _number(text, where)
    if not (0 < length < np.inf):
        raise ConfigError(f"{where} must be positive and finite, got {length}")
    return length


def _scheme(text: str, where: str) -> str:
    if text not in SCHEMES:
        raise ConfigError(f"{where} must be one of {SCHEMES}")
    return text


def _etas(text: str, where: str) -> Tuple[float, ...]:
    etas = _number_list(text, where)
    if not all(0 <= e < np.inf for e in etas):
        raise ConfigError(f"{where} must be nonnegative and finite")
    return etas


def _thicknesses(text: str, where: str) -> Tuple[float, ...]:
    thicknesses = _number_list(text, where)
    if not all(0 < t <= 1 for t in thicknesses):
        raise ConfigError(f"{where} must lie in (0, 1]")
    return thicknesses


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


def _data(text: str, where: str) -> str:
    spec = text.strip()
    _parse_spec(spec, where)
    return spec


# Every key of the file: section -> key -> (the RunConfig attribute that
# holds it, or None for RunConfig itself; the field it sets; its parser,
# which raises a ConfigError that names "[section] key").  The order is
# that of the provenance header.
KEYS = {
    "geometry": {"n": (None, "n", _count), "length": (None, "length", _length)},
    "material": {"youngs_modulus": ("beam", "E", _number), "thickness": ("beam", "t", _number),
                 "shear_correction": ("beam", "k", _number),
                 "poisson": ("beam", "poisson", _number),
                 "kappa_override": ("beam", "kappa_override", _number)},
    "control": {"nu": ("control", "nu", _number), "eta": ("control", "eta", _number),
                "lower": ("control", "a", _number), "upper": ("control", "b", _number)},
    "data": {"f": (None, "f", _data), "g": (None, "g", _data), "w_d": (None, "w_d", _data)},
    "solver": {"scheme": (None, "scheme", _scheme)},
    "study": {"etas": ("study", "etas", _etas),
              "thicknesses": ("study", "thicknesses", _thicknesses),
              "mesh_sizes": ("study", "mesh_sizes",
                             lambda text, where: _number_list(text, where, _count)),
              "ref_factor": ("study", "ref_factor", _count)},
}

@dataclass(frozen=True)
class StudyConfig:
    etas: Tuple[float, ...] = ()
    thicknesses: Tuple[float, ...] = ()
    mesh_sizes: Tuple[int, ...] = ()
    ref_factor: int = 8


@dataclass(frozen=True)
class RunConfig:
    n: int
    control: ControlParams
    length: float = 1.0
    beam: BeamParams = field(default_factory=BeamParams)
    f: str = "zero"
    g: str = "zero"
    w_d: str = "zero"
    scheme: str = LOCKING_FREE
    study: StudyConfig = field(default_factory=StudyConfig)
    base_dir: Optional[Path] = None  # resolves file: entries


def _realize_field(spec: str, mesh, base_dir: Optional[Path] = None):
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

    values = {}  # holder attribute (None: RunConfig) -> field -> parsed value
    sections = {}  # holder attribute -> its section
    for section in cp.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            holder, name, parse = KEYS[section][key]
            values.setdefault(holder, {})[name] = parse(cp.get(section, key), f"[{section}] {key}")
            sections[holder] = section
    for section, key in (("geometry", "n"), ("control", "nu"), ("control", "eta")):
        if not cp.has_option(section, key):
            raise ConfigError(f"[{section}] {key} is required")

    kw = values.pop(None)
    holders = typing.get_type_hints(RunConfig)
    for holder, fields in values.items():
        try:
            kw[holder] = holders[holder](**fields)
        except ValueError as exc:
            raise ConfigError(f"[{sections[holder]}]: {exc}") from exc
    return RunConfig(**kw, base_dir=path.resolve().parent)


def build_problem(cfg: RunConfig, n: Optional[int] = None, thickness: Optional[float] = None,
                  scheme: Optional[str] = None) -> ControlProblem:
    """Materialize a problem from a config, with per-study overrides."""
    mesh = build_uniform_mesh(n if n is not None else cfg.n, cfg.length)
    beam = cfg.beam if thickness is None else replace(cfg.beam, t=thickness)
    return ControlProblem(
        mesh=mesh,
        beam=beam,
        loads=LoadData(
            f=_realize_field(cfg.f, mesh, cfg.base_dir),
            g=_realize_field(cfg.g, mesh, cfg.base_dir),
            w_d=_realize_field(cfg.w_d, mesh, cfg.base_dir),
        ),
        control=cfg.control,
        scheme=scheme if scheme is not None else cfg.scheme,
    )
