"""Span recording around a library's functions, from outside the library.

A Tracer replaces a function where its callers look it up (a module or class
attribute) with a wrapper that records one span per call: name, start, end,
parent span and op id. Spans stay in memory until `dump`. Counters are
attached to the same wrappers, so counts are taken where the work happens.

A span's self time is its duration minus the part of its interval that its
direct child spans cover (children may nest or overlap; the covered part is
the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Self time of every span in `spans`, a list of
    (name, start, end, parent index or -1, op id)."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - union_length(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        """Set owner.attr = make_wrapper(original); False when owner has no
        such attribute (the name was removed or renamed)."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        return False


class Tracer:
    """Spans and counters for one traced pass. Single-threaded: the span
    stack assumes calls nest, which holds for one thread of one process."""

    def __init__(self, patches: Patches):
        self.patches = patches
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def _label(self, owner, attr):
        return f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"

    def span(self, owner, attr: str, name: str, counts=()):
        """Record a span per call of owner.attr; `counts` is a sequence of
        (counter name, function of the call's result) added after each call."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(tracer.spans)
                rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
                tracer.spans.append(rec)
                tracer._stack.append(sid)
                rec[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    tracer._stack.pop()
                for key, measure in counts:
                    tracer.counters[key] += measure(result)
                return result

            return wrapper

        if not self.patches.replace(owner, attr, make):
            self.missing.append(self._label(owner, attr))

    def count(self, owner, attr: str, key: str):
        """Count calls of owner.attr without recording spans."""
        counters = self.counters

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        if not self.patches.replace(owner, attr, make):
            self.missing.append(self._label(owner, attr))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "missing": self.missing,
                },
                fh,
                separators=(",", ":"),
            )
