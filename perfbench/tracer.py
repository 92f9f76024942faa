"""Span tracing from outside the program: wrap module functions, record, restore.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
span that was open when this one started, or -1.  Spans stay in memory until
the traced run ends.
"""

from __future__ import annotations

import time
from typing import Callable

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    """Replaces attributes with timing wrappers and puts the originals back.

    While a wrapped function runs, its attribute points at the original
    again, so a function that calls itself through its module global (as
    ``cli.dump_json`` does) records one span for the outermost call and
    pays nothing per recursive call.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook: Hook | None = None) -> None:
        """Record a span named ``name`` per call of ``owner.attr``.

        ``hook(args, kwargs, result)`` runs after each call that returns.
        """
        original = vars(owner)[attr]
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            setattr(owner, attr, original)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
                setattr(owner, attr, traced)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def roots(spans: list[list]) -> list[int]:
    """Index of the outermost enclosing span of each span."""
    out: list[int] = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out
