"""The exact-mode recorder the columnar ``LatencyRecorder`` replaced.

Until exact mode stored its samples as typed columns, every recorded
operation was one dict-backed ``OpSample`` appended to a list, and every
query scanned that list. ``LatencyRecorder`` here is that recorder,
verbatim (sketch mode included, so the mixed merges have their old
counterpart too); only ``percentile`` and the reservoir seeding come from
the product, which did not change them. ``tests/test_recorder_columns.py``
drives it and the product in lockstep and demands equal answers to every
query, sample for sample. Test-only: nothing under ``src/`` may import
this.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workloads.stats import _reservoir_rng, percentile


@dataclass(frozen=True)
class OpSample:
    """One completed operation."""

    kind: str  # "read" | "write" | domain-specific
    start: float  # sim ms
    latency: float  # ms
    ok: bool = True


class LatencyRecorder:
    """Collects operation samples for one experiment run."""

    def __init__(
        self,
        name: str = "",
        mode: str = "exact",
        reservoir_size: int = 4096,
    ):
        if mode not in ("exact", "sketch"):
            raise ValueError(f"unknown recorder mode {mode!r}")
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.mode = mode
        self.reservoir_size = reservoir_size
        self.samples: List[OpSample] = []
        self.errors = 0
        # kind -> sorted ok-latency list, invalidated on record(). Every
        # percentile/CDF/fraction query goes through latencies(); without
        # the cache each query re-filtered and re-sorted the full sample
        # list (reporting does dozens of queries per run).
        self._sorted_cache: Dict[Optional[str], List[float]] = {}
        # Sketch-mode state (exact counters + bounded reservoirs).
        self._counts: Dict[str, int] = {}
        self._sums: Dict[str, float] = {}
        self._seen: Dict[str, int] = {}
        self._reservoirs: Dict[str, List[float]] = {}
        self._kind_order: List[str] = []  # insertion-ordered kinds
        self._first_start: Optional[float] = None
        self._last_end: Optional[float] = None
        self._rng = _reservoir_rng(name) if mode == "sketch" else None

    def record(self, kind: str, start: float, latency: float, ok: bool = True) -> None:
        if self.mode == "exact":
            self.samples.append(OpSample(kind, start, latency, ok))
            if self._sorted_cache:
                self._sorted_cache.clear()
            if not ok:
                self.errors += 1
            return
        # Sketch path: exact span/count/mean accounting, reservoir tail.
        end = start + latency
        if self._first_start is None or start < self._first_start:
            self._first_start = start
        if self._last_end is None or end > self._last_end:
            self._last_end = end
        if not ok:
            self.errors += 1
            return
        if kind not in self._counts:
            self._counts[kind] = 0
            self._sums[kind] = 0.0
            self._seen[kind] = 0
            self._reservoirs[kind] = []
            self._kind_order.append(kind)
        self._counts[kind] += 1
        self._sums[kind] += latency
        seen = self._seen[kind] + 1
        self._seen[kind] = seen
        reservoir = self._reservoirs[kind]
        if len(reservoir) < self.reservoir_size:
            reservoir.append(latency)
        else:
            slot = self._rng.randrange(seen)
            if slot < self.reservoir_size:
                reservoir[slot] = latency
        if self._sorted_cache:
            self._sorted_cache.clear()

    # -- selection ----------------------------------------------------------

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Sorted ok-latencies for ``kind`` (cached; treat as read-only).

        In sketch mode these are the reservoir contents — a uniform
        sample of the stream, suitable for percentile estimates.
        """
        cached = self._sorted_cache.get(kind)
        if cached is None:
            if self.mode == "exact":
                cached = sorted(
                    s.latency
                    for s in self.samples
                    if s.ok and (kind is None or s.kind == kind)
                )
            elif kind is not None:
                cached = sorted(self._reservoirs.get(kind, ()))
            else:
                merged: List[float] = []
                for name in self._kind_order:
                    merged.extend(self._reservoirs[name])
                cached = sorted(merged)
            self._sorted_cache[kind] = cached
        return cached

    def count(self, kind: Optional[str] = None) -> int:
        if self.mode == "sketch":
            if kind is None:
                return sum(self._counts[name] for name in self._kind_order)
            return self._counts.get(kind, 0)
        return sum(
            1 for s in self.samples if s.ok and (kind is None or s.kind == kind)
        )

    # -- aggregates -----------------------------------------------------------

    def mean_latency(self, kind: Optional[str] = None) -> float:
        if self.mode == "sketch":
            total = self.count(kind)
            if not total:
                raise ValueError(f"no samples for kind {kind!r}")
            if kind is None:
                return sum(self._sums[n] for n in self._kind_order) / total
            return self._sums[kind] / total
        values = self.latencies(kind)
        if not values:
            raise ValueError(f"no samples for kind {kind!r}")
        return sum(values) / len(values)

    def percentile_latency(self, p: float, kind: Optional[str] = None) -> float:
        return percentile(self.latencies(kind), p)

    def span_ms(self) -> float:
        """Wall-clock (simulated) span from first start to last completion."""
        if self.mode == "sketch":
            if self._first_start is None or self._last_end is None:
                return 0.0
            return self._last_end - self._first_start
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
        if self.mode == "sketch":
            raise RuntimeError(
                "timeseries() needs per-sample starts; use mode='exact'"
            )
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
        """A new recorder with both sample sets (multi-client totals).

        Merging an exact recorder into a sketch one (or two sketches)
        yields a sketch: counts, means, errors, and span merge exactly;
        the combined reservoir is deterministically downsampled to
        ``reservoir_size`` when it overflows.
        """
        if self.mode == "exact" and other.mode == "exact":
            result = LatencyRecorder(name=f"{self.name}+{other.name}")
            result.samples = self.samples + other.samples
            result.errors = self.errors + other.errors
            return result
        result = LatencyRecorder(
            name=f"{self.name}+{other.name}",
            mode="sketch",
            reservoir_size=max(self.reservoir_size, other.reservoir_size),
        )
        for source in (self, other):
            result.errors += source.errors
            for bound in (source._span_bounds(),):
                first, last = bound
                if first is not None and (
                    result._first_start is None or first < result._first_start
                ):
                    result._first_start = first
                if last is not None and (
                    result._last_end is None or last > result._last_end
                ):
                    result._last_end = last
            for kind, count, total, values in source._kind_stats():
                if kind not in result._counts:
                    result._counts[kind] = 0
                    result._sums[kind] = 0.0
                    result._seen[kind] = 0
                    result._reservoirs[kind] = []
                    result._kind_order.append(kind)
                result._counts[kind] += count
                result._sums[kind] += total
                result._seen[kind] += count
                result._reservoirs[kind].extend(values)
        for kind in result._kind_order:
            reservoir = result._reservoirs[kind]
            if len(reservoir) > result.reservoir_size:
                result._reservoirs[kind] = result._rng.sample(
                    reservoir, result.reservoir_size
                )
        return result

    # -- merge helpers -------------------------------------------------------

    def _span_bounds(self) -> Tuple[Optional[float], Optional[float]]:
        if self.mode == "sketch":
            return self._first_start, self._last_end
        if not self.samples:
            return None, None
        return (
            min(s.start for s in self.samples),
            max(s.start + s.latency for s in self.samples),
        )

    def _kind_stats(self):
        """Yield (kind, ok-count, ok-latency-sum, representative values)
        in a deterministic order for merging."""
        if self.mode == "sketch":
            for kind in self._kind_order:
                yield (
                    kind,
                    self._counts[kind],
                    self._sums[kind],
                    list(self._reservoirs[kind]),
                )
            return
        kinds: List[str] = []
        for sample in self.samples:
            if sample.ok and sample.kind not in kinds:
                kinds.append(sample.kind)
        for kind in kinds:
            values = [s.latency for s in self.samples if s.ok and s.kind == kind]
            yield kind, len(values), sum(values), values
