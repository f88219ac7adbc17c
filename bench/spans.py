"""Timing wrappers installed around the package's layer boundaries.

A `Tracer` replaces each target function or method with a wrapper that
records one span per call: name, start, end, parent span and a little
information about the call.  `remove()` puts the originals back, so an
untraced round runs the package's own code.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time

clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "result")

    def __init__(self, name, parent, info):
        self.name = name
        self.parent = parent      # index into Tracer.spans, or -1 at the root
        self.info = info
        self.start = self.end = 0.0
        self.result = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name, info):
        span = Span(name, self._stack[-1] if self._stack else -1, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = clock()
        return span

    def _close(self, span):
        span.end = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, describe, keep):
        def wrapper(*args, **kwargs):
            span = self._open(name, describe(*args, **kwargs) if describe else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.result = result
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets, modules):
        """Wrap each (owner, attribute, span name, describe, keep) target.

        A module-level function is rebound in every module of `modules` that
        imported it by name, so calls through either binding are seen."""
        for owner, attr, name, describe, keep in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(
                    self._wrap(name, raw.__func__, describe, keep)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(name, raw, describe, keep))
            else:
                wrapper = self._wrap(name, raw, describe, keep)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- queries over the recorded spans --------------------------------------

    def named(self, name, under=None, outside=None):
        """Spans called `name`, optionally only those with (or without) an
        ancestor called `under` (`outside`)."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            if under is not None and not self.has_ancestor(span, under):
                continue
            if outside is not None and self.has_ancestor(span, outside):
                continue
            out.append(span)
        return out

    def has_ancestor(self, span, name):
        i = span.parent
        while i >= 0:
            if self.spans[i].name == name:
                return True
            i = self.spans[i].parent
        return False

    def self_times(self):
        """{name: [calls, total seconds, self seconds]}; self time is the
        span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        out = {}
        for span, inner in zip(self.spans, child):
            row = out.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.seconds
            row[2] += span.seconds - inner
        return out

    def to_records(self, round_index):
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "round": round_index, "info": s.info} for s in self.spans]


def total(spans):
    return sum(s.seconds for s in spans)


def median_ms(spans):
    return statistics.median(s.seconds for s in spans) * 1e3 if spans else 0.0
