"""Outside-in instrumentation of the program's modules.

The program's source stays untouched: for the length of an ``installed``
block, module attributes (and every alias of the same function object that
another module imported by name) are replaced by wrappers from this file.

``Tracer`` records one span per call -- name, start, end and the index of the
enclosing span -- in flat arrays, and computes self times once the run is
over.  ``Counter`` only counts calls and work units; the untraced runs use it
so that step counts come from the calls themselves.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._names = []
        self._ids = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.calls = {}           # span name -> number of spans
        self.work = {}            # span name -> summed work units of its calls
        self._stack = [-1]

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        i = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    def wrap(self, name, fn, work=None):
        open_span, stack, starts, ends = self._open, self._stack, self.starts, self.ends
        calls, tally = self.calls, self.work
        calls.setdefault(name, 0)
        tally.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if work is not None:
                tally[name] += work(args)
            i = open_span(name)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name):
        i = self._open(name)
        self.starts[i] = time.perf_counter()
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}}; a span's self time is its
        duration minus the durations of the spans it directly encloses."""
        n = len(self.name_ids)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_s = dur[:]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_s[p] -= dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self._names}
        for i in range(n):
            row = out[self._names[self.name_ids[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += self_s[i]
        return out

    def root_seconds(self):
        """Summed duration of the outermost spans."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.parents)) if self.parents[i] < 0)


class Counter:
    def __init__(self):
        self.calls = {}
        self.work = {}

    def wrap(self, name, fn, work=None):
        calls, tally = self.calls, self.work
        calls[name] = tally[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            if work is not None:
                tally[name] += work(args)
            return fn(*args, **kwargs)

        return counted


@contextmanager
def installed(recorder, targets, modules):
    """Replace each ``(owner, attribute, span name, work)`` target by
    ``recorder.wrap(...)`` in its owner and wherever ``modules`` hold the same
    object; everything is restored on exit."""
    saved = []
    try:
        for owner, attr, name, work in targets:
            original = vars(owner)[attr]
            wrapped = recorder.wrap(name, original, work)
            for holder in (owner, *modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, value))
                        setattr(holder, key, wrapped)
        yield recorder
    finally:
        for holder, key, value in reversed(saved):
            setattr(holder, key, value)
