"""In-memory spans recorded around calls, and the times derived from them.

A probe replaces a function where its caller looks it up (a module global or
a class attribute) with a wrapper that records one span per call: name,
start, end and the span that was open when it was called.  Spans stay in
memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        # Values a probe keeps for counting after the run, off the clock.
        self.kept: list = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def probe(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> None:
        """Rebind ``owner.attr`` to a wrapper recording span ``name``.

        ``on_return`` runs after the span has closed, so its cost is not
        charged to the probed call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else None
            tracer.spans.append(None)
            tracer._open.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                tracer.spans[span_id] = Span(span_id, parent, name, start, end)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every rebound name."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that do not sit inside another span of that name."""
    by_id = {s.id: s for s in spans}

    def nested(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return False

    return [s for s in spans if s.name == name and not nested(s)]


def total_time(spans: list[Span], name: str) -> float:
    """Wall time spent inside spans called ``name``, nested repeats counted once."""
    return sum(s.duration for s in _outermost(spans, name))


def call_count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def self_time(spans: list[Span], name: str, child_prefix: str = "") -> float:
    """Time inside spans called ``name`` minus the time of their direct
    children whose names start with ``child_prefix`` (every child by
    default).  Spans come from one call stack, so children never overlap
    each other or outlast their parent."""
    outer = _outermost(spans, name)
    ids = {s.id for s in outer}
    children = sum(
        s.duration for s in spans if s.parent in ids and s.name.startswith(child_prefix)
    )
    return sum(s.duration for s in outer) - children


def spans_to_json(spans: list[Span]) -> list[list]:
    return [[s.id, s.parent, s.name, s.start, s.end] for s in spans]


def spans_from_json(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]
