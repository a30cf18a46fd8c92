"""Timing helpers, the in-memory span recorder of the traced run, and
the result line every run prints."""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from perfbench.spec import END_TO_END, LAYERS, PER_LAYER, UNITS


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def percentile(values, p: int) -> float:
    """The ``p``-th percentile, interpolated between order statistics
    (``statistics.quantiles(method="inclusive")``)."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[p - 1])


def bucket_quantile(bounds, counts, q: float) -> float:
    """The ``q``-quantile of a histogram with upper bucket ``bounds`` and
    per-bucket ``counts`` (one more, for the overflow bucket), linearly
    interpolated inside its bucket; the first bucket starts at 0."""
    target = q * sum(counts)
    seen, low = 0, 0.0
    for high, count in zip(bounds, counts):
        if count and seen + count >= target:
            return low + (high - low) * (target - seen) / count
        seen, low = seen + count, high
    raise ValueError("quantile past the last finite bucket")


class Spans:
    """Spans kept in memory and written out once, when the run ends.

    Each operation (a publish round, a request, an ingested chunk) is a
    root span; the layer calls made for it are child spans carrying the
    same operation id.  A span's self time is its duration less the
    part of it that its children cover.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[dict] = []
        self._ids = 0

    def _add(self, record: dict) -> int:
        with self._lock:
            self._ids += 1
            record["id"] = self._ids
            self._spans.append(record)
            return self._ids

    @contextmanager
    def span(self, name: str, op: str, parent: int | None = None):
        """Time the body as one span; yields the span id, for children."""
        record = {"name": name, "op": op, "parent": parent,
                  "start": time.perf_counter()}
        span_id = self._add(record)
        try:
            yield span_id
        finally:
            record["end"] = time.perf_counter()

    def record(self, name: str, op: str, start: float, end: float,
               parent: int | None = None) -> int:
        """Add a span timed by the caller."""
        return self._add({"name": name, "op": op, "parent": parent,
                          "start": start, "end": end})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self._spans
                if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self._spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        totals: dict[str, float] = {}
        for s in self._spans:
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            totals[s["name"]] = totals.get(s["name"], 0.0) + (
                s["end"] - s["start"] - covered)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self._spans:
                out.write(json.dumps(s) + "\n")


class Result:
    """Operations attempted and failed, check violations, and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        #: Samples behind each metric, printed beside the result.
        self.samples: dict[str, int] = {}

    def count(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.problems) < 20:
                self.problems.append(what)

    def violation(self, what: str) -> None:
        self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def line(self, trace: bool, workload: str) -> str:
        """The last line of the run: every end-to-end metric (plain run)
        or every per-layer metric (traced run; 0 for a layer this
        workload does not cross)."""
        if trace:
            wanted = [(name, workload in LAYERS[name][1])
                      for name in PER_LAYER]
        else:
            wanted = [(name, True) for name in END_TO_END]
        metrics = {}
        for name, measured in wanted:
            value = self.metrics.get(name) if measured else 0.0
            if value is None:
                self.violation(f"{name} was not measured")
                value = 0.0
            metrics[name] = {"value": value, "unit": UNITS[name]}
        if not self.attempted:
            self.violation("no operation was attempted")
        return json.dumps({"correct": self.correct,
                           "attempted": max(1, self.attempted),
                           "failed": self.failed, "metrics": metrics})
