"""Spans recorded around calls into slelab's public functions.

``Patches`` replaces module attributes with wrappers and restores them; it
is the benchmark's one way of wrapping slelab.  slelab calls its functions
through module globals, so calls made inside the package are seen too.

A ``Tracer`` wraps module attributes (``flow.evolve``, ``spectrum.classify``,
``cli._emit``, ...) so that each call records one span: name, start, end,
parent span and thread.  Functions called too often for a span each
(``flow._rk4_substep``) are only counted.  Spans stay in memory and are
written out once, at the end of the traced run.

The parent is tracked per thread.  A thread with no open span of its own
(a worker of ``sample_ensemble``'s pool) takes as parent the innermost span
open on the thread that created the tracer, which is the call that
started the pool.
"""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np


class Patches:
    """Module attributes replaced by wrappers until ``restore``.

    ``make(original)`` returns the wrapper.  Patches nest: ``restore`` puts
    back what each ``wrap`` found, last first.
    """

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        wrapper.__wrapped__ = original
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.names = []          # span name ids
        self.start = []
        self.end = []
        self.parent = []
        self.thread = []
        self.units = []          # work units per span (path-point-steps, emitted values)
        self._name_ids = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = None
        self._patches = Patches()
        self.counts = {}         # name -> [calls, units] of counted functions

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._home:
                self._home_stack = stack
        return stack

    def _open(self, name_id, units):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.names.append(name_id)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.units.append(units)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def wrap(self, module, attr, name, units=None):
        """Replace ``module.attr`` by a span-recording wrapper until ``uninstall``.

        ``units(*args, **kwargs)`` may return the work units the call does.
        """
        name_id = self._name_ids.setdefault(name, len(self._name_ids))

        def make(original):
            def wrapper(*args, **kwargs):
                idx = self._open(name_id, units(*args, **kwargs) if units else 0)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(idx)
            return wrapper

        self._patches.wrap(module, attr, make)

    def count(self, module, attr, name, units):
        """Count the calls of ``module.attr`` and their work units, without spans."""
        tally = self.counts.setdefault(name, [0, 0])

        def make(original):
            def wrapper(*args, **kwargs):
                n = units(*args, **kwargs)
                with self._lock:
                    tally[0] += 1
                    tally[1] += n
                return original(*args, **kwargs)
            return wrapper

        self._patches.wrap(module, attr, make)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of benchmark code."""
        idx = self._open(self._name_ids.setdefault(name, len(self._name_ids)), 0)
        try:
            yield
        finally:
            self._close(idx)

    def uninstall(self):
        self._patches.restore()

    def arrays(self):
        """Spans as NumPy arrays, with the list of names indexed by ``name``."""
        names = sorted(self._name_ids, key=self._name_ids.get)
        return {
            "name": np.asarray(self.names, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "thread": np.asarray(self.thread, dtype=np.int64),
            "units": np.asarray(self.units, dtype=np.int64),
            "names": np.asarray(names),
        }


class SpanTable:
    """Sums over recorded spans: inclusive time, calls, units and self time."""

    def __init__(self, arrays):
        self.a = arrays
        self.names = list(arrays["names"])
        self.dur = arrays["end"] - arrays["start"]

    def _ids(self, names):
        return [self.names.index(n) for n in names if n in self.names]

    def _mask(self, names):
        return np.isin(self.a["name"], self._ids(names))

    def total(self, *names):
        """Inclusive time of the named spans, not counting a named span
        inside another named span twice."""
        mask = self._mask(names)
        parent = self.a["parent"]
        nested = np.zeros_like(mask)
        has_parent = parent >= 0
        nested[has_parent] = mask[parent[has_parent]]
        # the wrapped functions of one layer nest only directly (classify ->
        # lower_boundary_q), so dropping spans whose parent is named suffices
        return float(self.dur[mask & ~nested].sum())

    def calls(self, *names):
        return int(self._mask(names).sum())

    def units(self, *names):
        return int(self.a["units"][self._mask(names)].sum())

    def self_time(self, *names):
        """Span time of the named spans minus the time their child spans cover.

        Children on other threads may overlap one another; the covered time
        is the length of the union of the child intervals.
        """
        mask = self._mask(names)
        parents = np.flatnonzero(mask)
        if parents.size == 0:
            return 0.0
        is_parent = np.zeros(len(self.dur), dtype=bool)
        is_parent[parents] = True
        parent = self.a["parent"]
        child = np.flatnonzero((parent >= 0) & is_parent[np.maximum(parent, 0)])
        covered = 0.0
        if child.size:
            order = np.lexsort((self.a["start"][child], parent[child]))
            child = child[order]
            cur_parent, reach = -1, 0.0
            for c in child:
                pid = parent[c]
                s, e = self.a["start"][c], self.a["end"][c]
                if pid != cur_parent:
                    cur_parent, reach = pid, self.a["start"][pid]
                s = max(s, reach)
                e = min(e, self.a["end"][pid])
                if e > s:
                    covered += e - s
                    reach = e
        return float(self.dur[parents].sum() - covered)
