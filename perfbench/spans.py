"""In-memory spans for the traced benchmark run, with self times.

The benchmark records its own spans around the calls it makes into the
program, and adopts the program's spans from a ``trace.jsonl`` export.
Every span lives in memory until :meth:`SpanRecorder.write` dumps the
tree at the end of the run.

Parents are assigned by interval containment on the host monotonic clock
(``time.monotonic``, the clock :mod:`repro.obs.clock` reads too), so
benchmark spans, program spans and spans recorded in forked workers nest
into one tree.  A worker's span may only nest under a span of the main
process or of the same worker: two shards running side by side never
become parent and child.

An *aggregate* span sums many short busy periods that interleave with
other work, such as the time spent inside a generator's ``__next__``.
It keeps its first start and last end for placement, counts its summed
busy time against its parent's self time, and is never a parent itself.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TypeVar

T = TypeVar("T")

MAIN = "main"
_DONE = object()


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    worker: str = MAIN
    busy: float | None = None  # summed busy time; set on aggregates only
    span_id: int = 0
    parent_id: int | None = None
    self_s: float = 0.0
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


def _covered(parent: Span) -> float:
    """Seconds of ``parent`` its children account for.

    Real children count as the union of their intervals clipped to the
    parent (parallel shards overlap); aggregates add their busy time.
    """
    covered = sum(c.busy for c in parent.children if c.busy is not None)
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end))
        for c in parent.children
        if c.busy is None
    )
    run_start = run_end = None
    for start, end in intervals:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


class SpanRecorder:
    """Collects spans, builds the containment tree, reports self times."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, time.monotonic()))

    def timed(self, name: str, func: Callable[..., T]) -> Callable[..., T]:
        """``func`` wrapped in a span of ``name`` on every call."""

        def wrapper(*args: Any, **kwargs: Any) -> T:
            with self.span(name):
                return func(*args, **kwargs)

        return wrapper

    def busy_iter(self, name: str, items: Iterable[T]) -> Iterator[T]:
        """Yield ``items``, summing the time spent producing each one
        into one aggregate span (recorded when the iterator finishes)."""
        iterator = iter(items)
        busy = 0.0
        first = last = time.monotonic()
        try:
            while True:
                start = time.monotonic()
                item = next(iterator, _DONE)
                last = time.monotonic()
                busy += last - start
                if item is _DONE:
                    return
                yield item  # type: ignore[misc]
        finally:
            self.add_aggregate(name, first, last, busy)

    def add_aggregate(
        self, name: str, first: float, last: float, busy: float
    ) -> None:
        self.spans.append(Span(name, first, last, busy=busy))

    def adopt(self, records: Iterable[dict[str, object]]) -> None:
        """Add the span records of a program trace export."""
        for record in records:
            if record.get("kind") == "span":
                self.spans.append(
                    Span(
                        str(record["name"]),
                        float(record["start"]),  # type: ignore[arg-type]
                        float(record["end"]),  # type: ignore[arg-type]
                        worker=str(record["worker"]),
                    )
                )

    def build(self) -> None:
        """Assign ids, parents and self times."""
        ordered = sorted(self.spans, key=lambda s: (s.start, -s.end))
        for index, span in enumerate(ordered, start=1):
            span.span_id = index
            span.parent_id = None
            span.children = []
        for index, span in enumerate(ordered):
            # Sorting by (start, -end) puts every container first.
            containers = [
                c
                for c in ordered[:index]
                if c.busy is None
                and c.worker in (MAIN, span.worker)
                and c.contains(span)
            ]
            parent = min(containers, key=lambda c: c.end - c.start, default=None)
            if parent is not None:
                span.parent_id = parent.span_id
                parent.children.append(span)
        for span in ordered:
            span.self_s = max(span.duration - _covered(span), 0.0)
        self.spans = ordered

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name (call :meth:`build` first)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_s
        return totals

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path, header: dict[str, object]) -> None:
        """Dump the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "meta", **header}) + "\n")
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "name": s.name,
                            "worker": s.worker,
                            "span_id": s.span_id,
                            "parent_id": s.parent_id,
                            "start": s.start,
                            "end": s.end,
                            "duration": s.duration,
                            "self": s.self_s,
                            "aggregate": s.busy is not None,
                        }
                    )
                    + "\n"
                )
