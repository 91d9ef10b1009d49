"""In-memory span tracer that instruments the ``repro`` package from outside.

The benchmark records per-layer numbers without touching ``src/``: it wraps
the public functions and methods each layer exposes, and every call through a
wrapper records one span — name, start, end and the span that was open when
it began (its parent). Spans stay in memory in flat lists and are written out
once, when the run ends, so tracing does no I/O while it measures.

Name-imported functions (``from .eigensolver import block_davidson``) are
wrapped at every module attribute that holds them, which is the attribute the
caller resolves at call time; :meth:`Tracer.restore` puts every original back.

A span's *self time* is its duration minus the part of it covered by its
children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import re
import sys
import time

__all__ = [
    "NAME_PATTERN",
    "Tracer",
    "SpanTable",
    "percentile",
    "tail_percentile",
]

#: span and metric names: dotted lowercase words, at least two of them
#: (``layer.function`` or ``layer.sub.metric``)
NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: the package whose name-imported functions :meth:`Tracer.wrap_function` rebinds
PACKAGE = "repro"


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, q: float, min_above: int = 10) -> float | None:
    """The ``q``-th percentile, or ``None`` unless at least ``min_above``
    samples lie strictly above it — a tail percentile read from fewer
    samples is noise, so it is not reported."""
    if not samples:
        return None
    value = percentile(samples, q)
    above = sum(1 for s in samples if s > value)
    return value if above >= min_above else None


class Tracer:
    """Records spans in memory; installs and removes the wrappers that open them.

    Parameters
    ----------
    clock:
        Monotonic clock in seconds (``time.perf_counter`` by default; tests
        pass a fake one).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: while False, wrapped calls run without recording a span
        self.enabled = True

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self.starts.append(self.clock())
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (and drop it from the open stack)."""
        self.ends[index] = self.clock()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def table(self) -> "SpanTable":
        """The closed spans recorded so far, indexed for aggregation."""
        return SpanTable(self.names, self.starts, self.ends, self.parents, self.attrs)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, func, name: str, measure):
        tracer = self
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                index = tracer.open(name)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer.close(index)
                if measure is not None:
                    tracer.attrs[index] = measure(result, args, kwargs)
                return result

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if measure is not None:
                tracer.attrs[index] = measure(result, args, kwargs)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, func, name: str, measure=None) -> None:
        """Wrap a module-level function everywhere the package binds it.

        Every loaded ``repro`` module whose attribute *is* ``func`` — the
        defining module and each ``from x import func`` site — gets the
        wrapper, so callers that resolve the name at call time go through it.
        """
        wrapper = self._wrapper(func, name, measure)
        replaced = 0
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise LookupError(f"{func!r} is not bound in any loaded {PACKAGE} module")

    def wrap_method(self, cls, attr: str, name: str, measure=None) -> None:
        """Wrap a method (or a property's getter) defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(self._wrapper(original.fget, name, measure), original.fset, original.fdel)
        elif isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(self._wrapper(original.__func__, name, measure))
        else:
            wrapped = self._wrapper(original, name, measure)
        self._set(cls, attr, wrapped)

    def restore(self) -> None:
        """Put every wrapped attribute back to its original, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def dump(self, path, extra: dict | None = None) -> None:
        """Write every span (name, start, end, parent, attributes) as JSON."""
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [ids[n], s - t0, e - t0, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        payload = {
            "schema": "perfbench.trace/1",
            "span_fields": ["name_id", "start_s", "end_s", "parent"],
            "names": names,
            "spans": spans,
            "attrs": {str(i): a for i, a in self.attrs.items()},
            **(extra or {}),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, default=float)


class SpanTable:
    """Aggregations over a finished trace (children, self time, filters)."""

    def __init__(self, names, starts, ends, parents, attrs):
        self.names = list(names)
        self.starts = list(starts)
        self.ends = list(ends)
        self.parents = list(parents)
        self.attrs = dict(attrs)
        self.children: list[list[int]] = [[] for _ in self.names]
        self.by_name: dict[str, list[int]] = {}
        for index, (name, parent) in enumerate(zip(self.names, self.parents)):
            self.by_name.setdefault(name, []).append(index)
            if parent >= 0:
                self.children[parent].append(index)

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_time(self, index: int) -> float:
        """Duration minus the union of the children's intervals inside it."""
        start, end = self.starts[index], self.ends[index]
        covered = 0.0
        cursor = start
        for child in sorted(self.children[index], key=lambda c: self.starts[c]):
            lo = max(self.starts[child], cursor)
            hi = min(self.ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    def spans(self, names) -> list[int]:
        """Indices of the spans named in ``names``, in start order."""
        names = [names] if isinstance(names, str) else names
        return sorted(i for n in names for i in self.by_name.get(n, ()))

    def has_ancestor(self, index: int, names) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] in names:
                return True
            parent = self.parents[parent]
        return False

    def within(self, names, ancestors) -> list[int]:
        """Spans named in ``names`` that run inside a span named in ``ancestors``."""
        ancestors = set([ancestors] if isinstance(ancestors, str) else ancestors)
        return [i for i in self.spans(names) if self.has_ancestor(i, ancestors)]

    def direct(self, names, parents) -> list[int]:
        """Spans named in ``names`` whose parent span is named in ``parents``."""
        parents = set([parents] if isinstance(parents, str) else parents)
        return [
            i for i in self.spans(names)
            if self.parents[i] >= 0 and self.names[self.parents[i]] in parents
        ]

    def inclusive(self, names) -> float:
        """Wall time inside any span named in ``names``, nested ones counted once."""
        names = set([names] if isinstance(names, str) else names)
        return sum(self.duration(i) for i in self.spans(names) if not self.has_ancestor(i, names))

    def total(self, indices) -> float:
        return sum(self.duration(i) for i in indices)

    def attr_sum(self, indices, key: str) -> float:
        return sum(self.attrs.get(i, {}).get(key, 0) for i in indices)
