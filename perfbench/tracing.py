"""Span recording from outside the program.

A ``Tracer`` swaps each traced function for a wrapper in the namespaces
listed in ``spec.TRACED``, so no code under ``src/`` changes.  Every call
records one span: name, start, end (``perf_counter_ns``), parent span and
operation id.  Spans are kept in flat integer columns, because one sweep
alone makes about 200000 of them, and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

import spec


def _resolve(target: str):
    """'linkmc.SimReport.to_json' -> (dofsim.linkmc.SimReport, 'to_json')."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"dofsim.{module}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


class Tracer:
    """Records spans for the functions of ``spec.TRACED`` while installed.

    Span ids are indices into the columns.  A span's row is appended when
    it starts and its end is filled in when it returns or raises, so a
    child can name its parent before the parent ends.
    """

    def __init__(self):
        self.traced = [(name, targets) for name, targets, _ in spec.TRACED]
        self.names: List[str] = [name for name, _ in self.traced]
        self.name_ids: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.op_col = array("q")
        self.op_id = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, targets in self.traced:
            wrappers = {}
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                if original not in wrappers:
                    wrappers[original] = self._wrap(original, self.name_ids[name])
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[original])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _open(self, name_id: int) -> int:
        span = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self.op_id)
        self.end_col.append(0)
        self._stack.append(span)
        self.start_col.append(perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self.end_col[span] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name_id: int):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)

        return wrapper

    def operation(self, op_id: int, label: str):
        """Root span for one benchmark operation; traced calls nest under it."""
        if label not in self.name_ids:
            self.name_ids[label] = len(self.names)
            self.names.append(label)
        return _OperationSpan(self, op_id, self.name_ids[label])

    def columns(self) -> Dict[str, np.ndarray]:
        # Copies, so the columns can keep growing afterwards.
        return {
            "name": np.array(self.name_col, dtype=np.int32),
            "start": np.array(self.start_col, dtype=np.int64),
            "end": np.array(self.end_col, dtype=np.int64),
            "parent": np.array(self.parent_col, dtype=np.int64),
            "op": np.array(self.op_col, dtype=np.int64),
        }

    def per_function(self, op_scale: Optional[np.ndarray] = None) -> Dict[str, Dict[str, float]]:
        """calls, inclusive us per call and self seconds for each traced name.

        Self time is a span's duration minus the durations of its direct
        children, which cannot overlap in a single-threaded run.  With
        ``op_scale``, each span's duration is multiplied by the entry of its
        operation id.
        """
        cols = self.columns()
        n_names = len(self.names)
        dur = (cols["end"] - cols["start"]).astype(np.float64)
        if op_scale is not None:
            dur *= op_scale[cols["op"]]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        calls = np.bincount(cols["name"], minlength=n_names)
        inclusive = np.bincount(cols["name"], weights=dur, minlength=n_names)
        self_ns = np.bincount(cols["name"], weights=dur - child, minlength=n_names)
        out = {}
        for i, (name, _) in enumerate(self.traced):
            n = int(calls[i])
            out[name] = {
                "calls": n,
                "us_per_call": float(inclusive[i]) / n / 1e3 if n else 0.0,
                "self_s": float(self_ns[i]) / 1e9,
                "inclusive_s": float(inclusive[i]) / 1e9,
            }
        return out

    def write(self, path: Path) -> None:
        """Save the spans as named columns plus the table of span names."""
        np.savez(path, names=np.array(self.names), **self.columns())


class _OperationSpan:
    def __init__(self, tracer: Tracer, op_id: int, name_id: int):
        self.tracer, self.op_id, self.name_id = tracer, op_id, name_id

    def __enter__(self):
        self.tracer.op_id = self.op_id
        self.span = self.tracer._open(self.name_id)

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        self.tracer.op_id = -1
