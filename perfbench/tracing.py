"""Spans around calls into quatrot's layers, installed from outside.

``Tracer.install`` replaces every public function attribute of the layer
modules, including the names a module imports from another layer (such
as ``rot4.check_orthonormal``), with a wrapper that records a span:
name, start, end, parent span, request id and whether it raised. A span
is named after the module that defines the function, so
``rot4.mat_mul`` and ``linalg.mat_mul`` both record ``linalg.mat_mul``.
A name that a later version inlines or removes is simply not wrapped and
reports 0 calls. ``uninstall`` restores the originals.

Spans live in memory, in flat arrays, until ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("quaternion", "linalg", "rot3", "rot4", "rng", "kernels", "cli")


def _tag(name: str):
    """Suffix that splits a span name by argument shape, or None."""
    if name == "linalg.check_orthonormal":
        return lambda args, kwargs: f".m{np.shape(args[0])[0]}"
    if name == "rng.random_rotation":
        return lambda args, kwargs: f".dim{args[1] if len(args) > 1 else kwargs.get('dim')}"
    if name.startswith("kernels.batch_"):
        return lambda args, kwargs: f".n{len(args[0])}"
    if name == "cli.main":
        return lambda args, kwargs: f".{args[0][0]}" if args and args[0] else ".none"
    return None


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.raised = array("b")
        self.request_kinds: list = []
        self._stack: list = []
        self._request = -1
        self._patched: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.raised.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tag = _tag(name)
        fixed = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(self._id(name + tag(args, kwargs)) if tag else fixed)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._exit(idx)

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"quatrot.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("quatrot."):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{attr}"
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def begin_request(self, kind: str) -> None:
        """Open the span of one request; spans until end_request share its id."""
        self._request = len(self.request_kinds)
        self.request_kinds.append(kind)
        self._enter(self._id(f"request.{kind}"))

    def end_request(self, failed: bool) -> None:
        idx = self._stack[-1]
        if failed:
            self.raised[idx] = 1
        self._exit(idx)
        self._request = -1

    def write(self, path, meta: dict) -> None:
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            names=np.array(self.names),
            request_kinds=np.array(self.request_kinds),
            meta=np.array(json.dumps(meta)),
        )


class Spans:
    """Read-only view of a tracer's spans, with the per-layer statistics."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.request = np.frombuffer(tracer.request, dtype=np.int32)
        self.raised = np.frombuffer(tracer.raised, dtype=np.int8).astype(bool)
        self.dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
        self.kinds = np.array(tracer.request_kinds + [""])  # index -1 is ""
        self.child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(self.child, self.parent[has_parent], self.dur[has_parent])

    def select(self, name: str, ok_only: bool = True, prefix: bool = False) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if (n.startswith(name) if prefix else n == name)]
        mask = np.isin(self.name_id, ids)
        return mask & ~self.raised if ok_only else mask

    def mean_us(self, mask: np.ndarray, values=None) -> float:
        """Mean over the selected spans in microseconds; 0.0 when none."""
        if not mask.any():
            return 0.0
        return float(np.mean((self.dur if values is None else values)[mask])) / 1e3

    def request_kind(self) -> np.ndarray:
        return self.kinds[self.request]

    def ancestor(self, name: str) -> np.ndarray:
        """For each span, the index of its nearest enclosing span called
        `name` (itself included), or -1."""
        nid = self.names.index(name) if name in self.names else -2
        out = []
        for i, (span_id, parent) in enumerate(zip(self.name_id.tolist(), self.parent.tolist())):
            # a parent always precedes its children
            out.append(i if span_id == nid else (out[parent] if parent >= 0 else -1))
        return np.array(out, dtype=np.int64)
