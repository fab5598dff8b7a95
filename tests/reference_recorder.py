"""The recorder the columnar ``LatencyRecorder`` replaced.

Until the recorder stored its samples as typed columns, every recorded
operation was one dict-backed ``OpSample`` appended to a list, and every
query scanned that list. ``LatencyRecorder`` here is that recorder's
exact mode, verbatim; the sketch mode it also carried then is gone from
the product, so it is gone here too. Only ``percentile`` comes from the
product, which did not change it. ``tests/test_recorder_columns.py``
drives it and the product in lockstep and demands equal answers to every
query, sample for sample. Test-only: nothing under ``src/`` may import
this.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.stats import percentile


@dataclass(frozen=True)
class OpSample:
    """One completed operation."""

    kind: str  # "read" | "write" | domain-specific
    start: float  # sim ms
    latency: float  # ms
    ok: bool = True


class LatencyRecorder:
    """Collects operation samples for one experiment run."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[OpSample] = []
        self.errors = 0
        # kind -> sorted ok-latency list, invalidated on record(). Every
        # percentile/CDF/fraction query goes through latencies(); without
        # the cache each query re-filtered and re-sorted the full sample
        # list (reporting does dozens of queries per run).
        self._sorted_cache: Dict[Optional[str], List[float]] = {}

    def record(self, kind: str, start: float, latency: float, ok: bool = True) -> None:
        self.samples.append(OpSample(kind, start, latency, ok))
        if self._sorted_cache:
            self._sorted_cache.clear()
        if not ok:
            self.errors += 1

    # -- selection ----------------------------------------------------------

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Sorted ok-latencies for ``kind`` (cached; treat as read-only)."""
        cached = self._sorted_cache.get(kind)
        if cached is None:
            cached = sorted(
                s.latency
                for s in self.samples
                if s.ok and (kind is None or s.kind == kind)
            )
            self._sorted_cache[kind] = cached
        return cached

    def count(self, kind: Optional[str] = None) -> int:
        return sum(
            1 for s in self.samples if s.ok and (kind is None or s.kind == kind)
        )

    # -- aggregates -----------------------------------------------------------

    def mean_latency(self, kind: Optional[str] = None) -> float:
        values = self.latencies(kind)
        if not values:
            raise ValueError(f"no samples for kind {kind!r}")
        return sum(values) / len(values)

    def percentile_latency(self, p: float, kind: Optional[str] = None) -> float:
        return percentile(self.latencies(kind), p)

    def span_ms(self) -> float:
        """Wall-clock (simulated) span from first start to last completion."""
        if not self.samples:
            return 0.0
        first = min(s.start for s in self.samples)
        last = max(s.start + s.latency for s in self.samples)
        return last - first

    def throughput_ops_per_sec(self, kind: Optional[str] = None) -> float:
        """Completed ops per simulated second over the run's span."""
        span = self.span_ms()
        if span <= 0:
            return 0.0
        return self.count(kind) / (span / 1000.0)

    def cdf(self, kind: Optional[str] = None) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) points for CDF plots (Fig. 5)."""
        values = self.latencies(kind)
        n = len(values)
        return [(value, (index + 1) / n) for index, value in enumerate(values)]

    def fraction_below(self, latency_ms: float, kind: Optional[str] = None) -> float:
        """Fraction of operations completing within ``latency_ms``."""
        values = self.latencies(kind)
        if not values:
            raise ValueError(f"no samples for kind {kind!r}")
        return bisect.bisect_right(values, latency_ms) / len(values)

    def timeseries(
        self, bucket_ms: float, kind: Optional[str] = None
    ) -> List[Tuple[float, float]]:
        """Per-bucket throughput (ops/sec), for Fig. 10c-style plots."""
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        buckets: Dict[int, int] = {}
        for sample in self.samples:
            if not sample.ok or (kind is not None and sample.kind != kind):
                continue
            bucket = int((sample.start + sample.latency) // bucket_ms)
            buckets[bucket] = buckets.get(bucket, 0) + 1
        return [
            (bucket * bucket_ms, count / (bucket_ms / 1000.0))
            for bucket, count in sorted(buckets.items())
        ]

    def summary(
        self, kinds: Sequence[str] = ("read", "write")
    ) -> Dict[str, object]:
        """JSON-plain aggregate snapshot (for scenario cells / caching).

        Per kind: count, mean, p50/p90/p99 (None when the kind has no ok
        samples), plus overall count, throughput, span, and errors. Every
        value is a JSON scalar so the dict round-trips bit-exactly
        through the result cache.
        """
        def maybe(fn, *args):
            try:
                return fn(*args)
            except ValueError:
                return None

        out: Dict[str, object] = {
            "count": self.count(),
            "errors": self.errors,
            "span_ms": self.span_ms(),
            "throughput_ops_per_sec": self.throughput_ops_per_sec(),
        }
        for kind in kinds:
            out[f"{kind}_count"] = self.count(kind)
            out[f"{kind}_mean_ms"] = maybe(self.mean_latency, kind)
            for p in (50, 90, 99):
                out[f"{kind}_p{p}_ms"] = maybe(self.percentile_latency, p, kind)
        return out

    def merged(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """A new recorder with both sample sets (multi-client totals)."""
        result = LatencyRecorder(name=f"{self.name}+{other.name}")
        result.samples = self.samples + other.samples
        result.errors = self.errors + other.errors
        return result
