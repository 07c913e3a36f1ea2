"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the public
calls into each layer (see ``patch_function`` / ``patch_method``); the
program under test is never edited.  A span has a name, a layer, a
start, an end and a parent.  Coarse spans (a figure, a ``Machine.run``,
a ``build_trace``) are kept and written out as a Chrome trace; fine
spans (one ``MemoryHierarchy.load``, one predictor call) are too many
to keep, so they are folded into per-layer counters at exit but still
charge their time to the enclosing span, which keeps self times exact.

Self time of a span = its duration minus the time its child spans
cover.  Summing self time by layer, plus the root span's own self time
as ``other``, gives a breakdown that adds up to the root's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable, Dict, List

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "index")

    def __init__(self, name: str, layer: str, start: float,
                 index: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    """A stack of open spans plus everything closed so far."""

    def __init__(self) -> None:
        self.origin = _clock()
        self._stack: List[_Frame] = []
        #: Kept spans: (name, layer, start, end, parent index, self).
        self.spans: List[tuple] = []
        #: Summed self time per layer.
        self.self_s: Dict[str, float] = {}
        #: Summed duration and number of spans per span name.
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def open(self, name: str, layer: str, keep: bool = True) -> _Frame:
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append(None)  # filled on close
        frame = _Frame(name, layer, _clock(), index)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        own = duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        layer = frame.layer
        self.self_s[layer] = self.self_s.get(layer, 0.0) + own
        self.incl_s[frame.name] = self.incl_s.get(frame.name, 0.0) + duration
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        if frame.index >= 0:
            parent = next((f.index for f in reversed(self._stack)
                           if f.index >= 0), -1)
            self.spans[frame.index] = (frame.name, layer, frame.start,
                                       end, parent, own)

    @contextlib.contextmanager
    def span(self, name: str, layer: str, keep: bool = True):
        frame = self.open(name, layer, keep)
        try:
            yield frame
        finally:
            self.close(frame)

    def wrap(self, fn: Callable, name: str, layer: str,
             keep: bool = True) -> Callable:
        """``fn`` with every call recorded as a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name, layer, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return traced

    def write_chrome(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        events = []
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, layer, start, end, parent, own = span
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": i, "parent": parent,
                         "self_us": round(own * 1e6, 3)}})
        folded = {name: {"calls": self.calls[name],
                         "inclusive_s": self.incl_s[name]}
                  for name in sorted(self.calls)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_by_name": folded}}, handle)


def patch_function(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded module
    that holds it (``from x import f`` copies the binding, so patching
    the defining module alone is not enough)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def patch_method(obj: object, method: str, tracer: Tracer, name: str,
                 layer: str) -> None:
    """Shadow one bound method of one object with a fine (unkept) span;
    the class and every other instance are untouched."""
    setattr(obj, method,
            tracer.wrap(getattr(obj, method), name, layer, keep=False))
