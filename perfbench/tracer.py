"""In-memory spans around calls into gapdp, recorded from outside the package.

A :class:`Tracer` replaces module attributes (``gapdp.harness.gap_topk``,
``gapdp.cli.emit``, ...) with wrappers that record one span per call: name,
start, end and the span that was open when the call began.  Spans live in
flat arrays so a million-call audit round costs about 30 MB, and they are
reduced to per-name counts and durations when the run ends; no argument or
return value is ever stored.

Seeded sources get a span for their construction and a counter on their
``uniform`` method, which gives the uniforms drawn per trial.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.uniforms = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(_now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _now()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def source_factory(self, cls: type) -> Callable:
        """Wrap a RandomSource class: span its construction, count its draws."""
        make = self.wrap(cls, "noise.SeededSource")

        def factory(*args, **kwargs):
            src = make(*args, **kwargs)
            draw = src.uniform

            def counted_uniform():
                self.uniforms += 1
                return draw()

            src.uniform = counted_uniform
            return src

        return factory

    def install(self, targets) -> None:
        """Patch each ``(module, attribute, span name)`` target; a span name
        of ``None`` marks a RandomSource class."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            if name is None:
                replacement = self.source_factory(original)
            else:
                replacement = self.wrap(original, name)
            self._patched.append((module, attr, original))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: count, total and self durations, self-time quantiles
        and the most common parent.  Self time is the span's duration minus
        the time its child spans cover."""
        if not self._start:
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = (
            np.frombuffer(self._end, dtype=np.int64)
            - np.frombuffer(self._start, dtype=np.int64)
        ).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        out = {}
        for nid, span in enumerate(self._names):
            mask = name == nid
            if not mask.any():
                continue
            parents = parent[mask]
            rooted = parents[parents >= 0]
            if rooted.size:
                top = np.bincount(name[rooted]).argmax()
                parent_name = self._names[int(top)]
            else:
                parent_name = None
            own = self_ns[mask]
            out[span] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum() / 1e9),
                "self_s": float(own.sum() / 1e9),
                "self_us_p50": float(np.percentile(own, 50) / 1e3),
                "self_us_p99": float(np.percentile(own, 99) / 1e3),
                "parent": parent_name,
            }
        return out
