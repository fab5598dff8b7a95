"""Measurement: per-operation samples, percentiles, CDFs, time series.

Two recording modes:

* ``exact`` (the default) keeps every sample — full-fidelity CDFs and
  time series. All the paper's figures use this mode. The samples live
  in three typed columns, not in one object per operation: the start
  and the latency as float64 (``array('d')``), and one byte that
  encodes the kind, as an index into the recorder's kind table, and
  whether the op succeeded: ≈ 18 traced bytes per sample, growth slack
  included. ``samples`` is a read-only view that builds an
  :class:`OpSample` only when one is asked for.
* ``sketch`` keeps **O(1) memory per kind**: exact count / mean / error
  / span accounting plus a fixed-size reservoir (Vitter's algorithm R
  with a deterministic seeded RNG) from which percentiles and CDFs are
  estimated. The fleet cells drive up to 1.6 x 10^5 real sessions; even
  at 18 bytes a sample the columns would grow with the run, so they
  record through a sketch instead. Counts, means,
  errors, span, and throughput are exact in both modes; only
  percentile/CDF queries are estimates in sketch mode.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Dict, List, Optional, Tuple

__all__ = ["LatencyRecorder", "OpSample", "percentile"]

#: Kinds one exact recorder can tell apart: a code is ``index << 1 | ok``
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
    """An exact recorder's samples in record order, read-only.

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


def _reservoir_rng(name: str) -> random.Random:
    """Deterministic reservoir RNG: seeded from the recorder *name* via
    sha256, never from ``hash()`` (which moves with PYTHONHASHSEED)."""
    digest = hashlib.sha256(f"reservoir:{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


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
        self.errors = 0
        # Exact-mode columns, one entry per sample in record order. A code
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
        # Sketch-mode state (exact counters + bounded reservoirs).
        self._counts: Dict[str, int] = {}
        self._sums: Dict[str, float] = {}
        self._seen: Dict[str, int] = {}
        self._reservoirs: Dict[str, List[float]] = {}
        self._kind_order: List[str] = []  # insertion-ordered kinds
        self._first_start: Optional[float] = None
        self._last_end: Optional[float] = None
        self._rng = _reservoir_rng(name) if mode == "sketch" else None

    @property
    def samples(self) -> Sequence[OpSample]:
        """Every sample in record order, as a read-only view (always
        empty in sketch mode)."""
        return _SampleView(self)

    def record(self, kind: str, start: float, latency: float, ok: bool = True) -> None:
        if self.mode == "exact":
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
        """One truth value per exact sample: ok, and of ``kind`` unless
        ``kind`` is None."""
        if kind is None:
            return map((1).__and__, self._codes)
        code = self._kind_codes.get(kind)
        if code is None:
            return iter(())  # never recorded: selects nothing
        return map((code | 1).__eq__, self._codes)

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        """Sorted ok-latencies for ``kind`` (cached; treat as read-only).

        In sketch mode these are the reservoir contents — a uniform
        sample of the stream, suitable for percentile estimates.
        """
        cached = self._sorted_cache.get(kind)
        if cached is None:
            if self.mode == "exact":
                cached = sorted(compress(self._latencies, self._ok_mask(kind)))
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
        return sum(self._ok_mask(kind))

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
        first, last = self._span_bounds()
        if first is None or last is None:
            return 0.0
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
        """A new recorder with both sample sets (multi-client totals).

        Merging an exact recorder into a sketch one (or two sketches)
        yields a sketch: counts, means, errors, and span merge exactly;
        the combined reservoir is deterministically downsampled to
        ``reservoir_size`` when it overflows.
        """
        if self.mode == "exact" and other.mode == "exact":
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
        if not self._starts:
            return None, None
        return min(self._starts), max(map(add, self._starts, self._latencies))

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
        # Kinds in the order of their first ok sample.
        codes = self._codes
        for code in dict.fromkeys(code for code in codes if code & 1):
            values = list(compress(self._latencies, map(code.__eq__, codes)))
            yield self._kinds[code >> 1], len(values), sum(values), values
