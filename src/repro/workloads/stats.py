"""Measurement: per-operation samples, percentiles, CDFs, time series.

One recorder keeps every sample — full-fidelity percentiles, CDFs and
time series for every figure, ablation and fleet cell. The samples live
in three typed columns, not in one object per operation: the start and
the latency as float64 (``array('d')``), and one byte that encodes the
kind, as an index into the recorder's kind table, and whether the op
succeeded: ≈ 18 traced bytes per sample, growth slack included.
``samples`` is a read-only view that builds an :class:`OpSample` only
when one is asked for.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Dict, List, Optional, Tuple

__all__ = ["LatencyRecorder", "OpSample", "percentile"]

#: Kinds one recorder can tell apart: a code is ``index << 1 | ok``
#: and must fit the code column's unsigned byte.
MAX_KINDS = 128


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    # low + delta*f form is exact when both endpoints are equal (the
    # a*(1-f) + b*f form can round just outside [a, b]).
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction


@dataclass(frozen=True, slots=True)
class OpSample:
    """One completed operation."""

    kind: str  # "read" | "write" | domain-specific
    start: float  # sim ms
    latency: float  # ms
    ok: bool = True


class _SampleView(Sequence):
    """A recorder's samples in record order, read-only.

    Length is O(1); indexing (an int) and iteration build each
    :class:`OpSample` from the columns on demand. Equal to a list (or
    another view) that holds equal samples in the same order.
    """

    __slots__ = ("_recorder",)

    def __init__(self, recorder: "LatencyRecorder"):
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self._recorder._codes)

    def __getitem__(self, index: int) -> OpSample:
        recorder = self._recorder
        code = recorder._codes[index]
        return OpSample(
            recorder._kinds[code >> 1],
            recorder._starts[index],
            recorder._latencies[index],
            bool(code & 1),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, _SampleView)):
            return list(self) == list(other)
        return NotImplemented


class LatencyRecorder:
    """Collects operation samples for one experiment run."""

    def __init__(self, name: str = ""):
        self.name = name
        self.errors = 0
        # The columns, one entry per sample in record order. A code
        # is ``kind index << 1 | ok``; ``_kind_codes`` maps a kind to its
        # code with the ok bit clear, ``_kinds`` an index back to its kind.
        self._starts = array("d")
        self._latencies = array("d")
        self._codes = array("B")
        self._kinds: List[str] = []
        self._kind_codes: Dict[str, int] = {}
        # kind -> sorted ok-latency list, invalidated on record(). Every
        # percentile/CDF/fraction query goes through latencies(); without
        # the cache each query re-filtered and re-sorted the full sample
        # list (reporting does dozens of queries per run).
        self._sorted_cache: Dict[Optional[str], List[float]] = {}

    @property
    def samples(self) -> Sequence[OpSample]:
        """Every sample in record order, as a read-only view."""
        return _SampleView(self)

    def record(self, kind: str, start: float, latency: float, ok: bool = True) -> None:
        # The float64 columns would turn an int into the equal float;
        # refusing one keeps every sample repr-identical to its input.
        if type(start) is not float or type(latency) is not float:
            raise TypeError(
                f"start and latency must be floats, not {start!r} and {latency!r}"
            )
        code = self._kind_codes.get(kind)
        if code is None:
            code = self._add_kind(kind)
        self._starts.append(start)
        self._latencies.append(latency)
        if ok:
            self._codes.append(code | 1)
        else:
            self._codes.append(code)
            self.errors += 1
        if self._sorted_cache:
            self._sorted_cache.clear()

    # -- selection ----------------------------------------------------------

    def _add_kind(self, kind: str) -> int:
        """Add a kind the table lacks; its code with the ok bit clear."""
        if len(self._kinds) == MAX_KINDS:
            raise ValueError(
                f"recorder {self.name!r} already holds {MAX_KINDS} kinds;"
                f" cannot add {kind!r}"
            )
        code = self._kind_codes[kind] = len(self._kinds) << 1
        self._kinds.append(kind)
        return code

    def _ok_mask(self, kind: Optional[str]) -> Iterator[int]:
        """One truth value per sample: ok, and of ``kind`` unless
        ``kind`` is None."""
        if kind is None:
            return map((1).__and__, self._codes)
        code = self._kind_codes.get(kind)
        if code is None:
            return iter(())  # never recorded: selects nothing
        return map((code | 1).__eq__, self._codes)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Sorted ok-latencies for ``kind`` (cached; treat as read-only)."""
        cached = self._sorted_cache.get(kind)
        if cached is None:
            cached = sorted(compress(self._latencies, self._ok_mask(kind)))
            self._sorted_cache[kind] = cached
        return cached

    def count(self, kind: Optional[str] = None) -> int:
        return sum(self._ok_mask(kind))

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
        if not self._starts:
            return 0.0
        return max(map(add, self._starts, self._latencies)) - min(self._starts)

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
        for start, latency in compress(
            zip(self._starts, self._latencies), self._ok_mask(kind)
        ):
            bucket = int((start + latency) // bucket_ms)
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
        """A new recorder with both sample sets (multi-client totals):
        ``self``'s samples, then ``other``'s, in record order."""
        result = LatencyRecorder(name=f"{self.name}+{other.name}")
        result._kinds = list(self._kinds)
        result._kind_codes = dict(self._kind_codes)
        remap = bytearray(range(256))  # other's code -> result's code
        for kind, code in other._kind_codes.items():
            mapped = result._kind_codes.get(kind)
            if mapped is None:
                mapped = result._add_kind(kind)
            remap[code] = mapped
            remap[code | 1] = mapped | 1
        result._starts = self._starts + other._starts
        result._latencies = self._latencies + other._latencies
        result._codes = self._codes + array(
            "B", other._codes.tobytes().translate(remap)
        )
        result.errors = self.errors + other.errors
        return result
