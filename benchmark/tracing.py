"""Spans around sparsebeam's public layer entry points, kept in memory.

The package itself is not instrumented: ``Tracer.install`` replaces each
traced function by a wrapper in every loaded ``sparsebeam.*`` namespace
where the original object is bound (``ssn`` and ``oracles`` import
``classify_branches``, ``control_load_matrix`` and others by name), and
traced methods on their classes.  ``Tracer.uninstall`` puts the originals
back.  Each span records its name, start, end, parent span and an optional
note taken from the call's result (iteration counts, right-hand-side
columns).
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    note: Any = None
    child_s: float = 0.0  # time covered by direct children
    nested: bool = False  # inside another span of the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ssn_note(args, kwargs, result):
    return (result.iterations, len(result.residual_history))


def _columns_note(args, kwargs, result):
    rhs = args[1] if len(args) > 1 else kwargs["rhs"]
    return 1 if np.ndim(rhs) == 1 else int(np.shape(rhs)[1])


def _fista_note(args, kwargs, result):
    return result.iterations


# (module, attribute path, span name, note extractor)
COUNTED = [("sparsebeam.ssn", "ssn_solve", "ssn.solve", _ssn_note)]
LAYERS = COUNTED + [
    ("sparsebeam.fem", "BeamOperator.__init__", "fem.operator_build", None),
    ("sparsebeam.fem", "BeamOperator.solve", "fem.banded_solve", _columns_note),
    ("sparsebeam.fem", "control_load_matrix", "fem.block_build", None),
    ("sparsebeam.fem", "p1_mass_matrix", "fem.block_build", None),
    ("sparsebeam.fem", "assemble_load", "fem.block_build", None),
    ("sparsebeam.control", "classify_branches", "control.classify", None),
    ("sparsebeam.oracles", "ReducedQuadratic.__init__", "oracles.reduced_build", None),
    ("sparsebeam.oracles", "prox_gradient_solve", "oracles.prox_solve", _fista_note),
    ("sparsebeam.oracles", "fd_gradient_check", "oracles.fd_check", None),
    ("sparsebeam.experiments", "run_sweep", "experiments.sweep", None),
    ("sparsebeam.experiments", "run_convergence", "experiments.grid", None),
    ("sparsebeam.experiments", "run_locking", "experiments.grid", None),
    ("sparsebeam.experiments", "write_csv", "experiments.write", None),
    ("sparsebeam.experiments", "write_field", "experiments.write", None),
]


@dataclass
class Tracer:
    targets: list
    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _open: Dict[str, int] = field(default_factory=dict)
    _undo: List[tuple] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, time.perf_counter(), parent=parent,
                        nested=open_.get(name, 0) > 0)
            spans.append(span)
            stack.append(len(spans) - 1)
            open_[name] = open_.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                span.end = time.perf_counter()
                if parent >= 0:
                    spans[parent].child_s += span.duration
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, name, note in self.targets:
            owner = sys.modules[module]
            if "." in path:  # a method: wrap it once, on its class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, note))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(name, orig, note)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sparsebeam" or mod_name.startswith("sparsebeam.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()

    def outermost(self, name: str):
        """Spans of one name that have no ancestor of the same name."""
        return [s for s in self.spans if s.name == name and not s.nested]

    def pattern_solves(self) -> int:
        """Sum of SSNResult.iterations over outermost ssn_solve calls."""
        return sum(s.note[0] for s in self.outermost("ssn.solve"))

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts and busy times of the spans recorded so far."""
        by_name: Dict[str, List[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def busy(name):
            return sum(s.duration for s in self.outermost(name))

        def count(name):
            return len(by_name.get(name, []))

        solves = self.outermost("ssn.solve")
        pattern = sum(s.note[0] for s in solves)
        main = sum(s.note[1] for s in solves)
        self_s = sum(s.duration - s.child_s for s in solves)
        return {
            "ssn.solve_s": busy("ssn.solve"),
            "ssn.self_s": self_s,
            "ssn.self_ms_per_pattern": 1e3 * self_s / pattern if pattern else 0.0,
            "ssn.main_iterations": main,
            "ssn.reseed_solves": pattern - main,
            "ssn.reseeded_solves": sum(1 for s in solves if s.note[0] > s.note[1]),
            "fem.operator_builds": count("fem.operator_build"),
            "fem.operator_build_s": busy("fem.operator_build"),
            "fem.block_build_s": busy("fem.block_build"),
            "fem.banded_solves": count("fem.banded_solve"),
            "fem.banded_columns": sum(s.note for s in by_name.get("fem.banded_solve", [])),
            "fem.banded_solve_s": busy("fem.banded_solve"),
            "control.classify_calls": count("control.classify"),
            "control.classify_s": busy("control.classify"),
            "oracles.reduced_builds": count("oracles.reduced_build"),
            "oracles.reduced_build_s": busy("oracles.reduced_build"),
            "oracles.prox_solve_s": busy("oracles.prox_solve"),
            "oracles.fista_iterations": sum(s.note for s in by_name.get("oracles.prox_solve", [])),
            "oracles.fd_check_s": busy("oracles.fd_check"),
            "experiments.sweep_s": busy("experiments.sweep"),
            "experiments.grid_s": busy("experiments.grid"),
            "experiments.write_s": busy("experiments.write"),
        }
