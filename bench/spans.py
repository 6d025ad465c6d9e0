"""In-memory spans for the traced run, and the self-time arithmetic over them.

A span records a name, its start and end (``perf_counter`` seconds), the id
of the span it was opened inside, the job it belongs to, and the counts
that the wrapped calls returned.  Spans are only kept in memory; the traced
job writes them out once, when it ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects the spans of one job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the body; the yielded dict takes the counts to record."""
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "job": self.job,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._open.pop()


class NullTracer:
    """The untraced path: same call sites, nothing recorded."""

    @contextmanager
    def span(self, name: str):
        yield {}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the given intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """Each span's duration minus the part of it that its child spans cover,
    keyed by (job, span id)."""
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["job"], s["parent"]), []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        key = (s["job"], s["id"])
        inside = [
            (max(a, lo), min(b, hi))
            for a, b in children.get(key, ())
            if min(b, hi) > max(a, lo)
        ]
        out[key] = (hi - lo) - _covered(inside)
    return out


def layer_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time per span name, and summed counts per count name."""
    own = self_times(spans)
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + own[(s["job"], s["id"])]
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return seconds, counts
