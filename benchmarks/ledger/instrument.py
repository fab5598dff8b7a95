"""What one pass over a workload measures, and how.

A round (one fresh subprocess) makes exactly one *pass* over its
workload's measured phase:

* ``timed``   — nothing attached; the phase is cut into slices of equal
  op count, each bracketed by the calibration loop;
* ``profile`` — ``cProfile`` around the phase, for per-layer self time;
* ``memory``  — ``tracemalloc`` around the phase plus a ``Network.tap``
  message counter, for live bytes and per-layer message counts.

Timing and tracing never share a pass: the profiler triples the cost of
every Python call and ``tracemalloc`` quadruples allocation-heavy code.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from calibration import REFERENCE_S, calibrate
from layers import LayerMap, MessageCounter, ProfileTable, live_kb_by_layer

__all__ = ["PASSES", "Instrument", "Region", "reference_rate"]

PASSES = ("timed", "profile", "memory")

#: Slices per timed phase.
SLICES = 32

#: Yardstick runs when set-up ends (their median scales ``setup_s``).
SETUP_CALIBRATIONS = 5

#: (ops, host CPU seconds, mean of the two bracketing calibrations)
Slice = Tuple[int, float, float]


def reference_rate(slices: List[Slice]) -> float:
    """Ops per reference-box CPU second over a round's slices.

    Each slice's CPU time is scaled by how slow the yardstick ran around
    it; the slowest and the fastest tenth of the slices (by scaled rate)
    are dropped, and the rest give total ops over total scaled time. Of
    the estimators tried on this box (median slice, inter-quartile mean,
    plain total) this one repeated best, both at one seed and across
    seeds: a ratio of sums does not care where the slice boundaries fall
    in a workload with phases (``wk_faulty``'s outages), and the trim
    drops the slices another process interfered with.
    """
    scaled = sorted(
        ((ops, cpu_s * REFERENCE_S / calib_s) for ops, cpu_s, calib_s in slices),
        key=lambda pair: pair[0] / pair[1],
    )
    trim = len(scaled) // 10
    kept = scaled[trim:len(scaled) - trim]
    return sum(ops for ops, _s in kept) / sum(ref_s for _ops, ref_s in kept)


@dataclass
class Region:
    """One instrumented stretch of execution."""

    cpu_s: float = 0.0
    slices: List[Slice] = field(default_factory=list)
    profile: Optional[ProfileTable] = None
    traced_peak_mb: float = 0.0
    live_kb: Dict[str, float] = field(default_factory=dict)


class Instrument:
    """The measuring side of one pass; the workload calls it at phase
    boundaries and, in a timed phase, as ops complete."""

    def __init__(self, mode: str, layer_map: LayerMap) -> None:
        if mode not in PASSES:
            raise ValueError(f"unknown pass {mode!r}; pick from {PASSES}")
        self.mode = mode
        self.layer_map = layer_map
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.calibrations: List[float] = []
        self._yardstick_s = 0.0  # CPU spent calibrating, which is no one's cost
        self._profiler: Optional[cProfile.Profile] = None
        self._region: Optional[Region] = None
        self._began = 0.0  # CPU clock, net of the yardstick, at begin()
        self._slice_ops = 0  # ops per slice when slices are cut by count
        self._left = 0
        self._marked = 0  # ops total at the last mark()
        self._stamp = 0.0
        self._calib: Optional[float] = None  # yardstick run that opened the slice

    # -- phase boundaries ----------------------------------------------------

    def setup_done(self) -> None:
        """Fresh interpreter -> here is the workload's set-up cost, in
        reference-box CPU seconds like every other host time: this box
        has a slow state in which set-up and yardstick both take 1.4x."""
        cpu_s = self._cpu_clock()
        calib_s = statistics.median(
            self._calibrate() for _ in range(SETUP_CALIBRATIONS)
        )
        self.setup_s = cpu_s * REFERENCE_S / calib_s

    def measured_done(self) -> None:
        """Peak RSS is read before quiesce and output checks add to it."""
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    def message_counter(self) -> Optional[MessageCounter]:
        """A fresh ``Network.tap`` callback on the memory pass, else None
        (a tap costs a call per message, so no other pass carries one)."""
        return MessageCounter(self.layer_map) if self.mode == "memory" else None

    # -- one region ----------------------------------------------------------

    def begin(self, sliced_ops: int = 0) -> None:
        """Open a region. A timed pass cuts it into slices, each bracketed
        by the yardstick, in one of two ways: ``sliced_ops`` > 0 announces
        that many ``on_op`` calls, cut into SLICES equal counts; otherwise
        the workload calls ``mark`` whenever it likes."""
        self._region = Region()
        self._slice_ops = max(1, sliced_ops // SLICES)
        self._left = self._slice_ops
        self._marked = 0
        if self.mode == "profile":
            self._profiler = cProfile.Profile()
            self._profiler.enable()
        elif self.mode == "memory":
            gc.collect()
            tracemalloc.start(1)
        else:
            self._calib = self._calibrate()
        self._began = self._cpu_clock()
        self._stamp = time.process_time()

    def on_op(self) -> None:
        """One op completed inside a region sliced by count."""
        self._left -= 1
        if self._left == 0 and self.mode == "timed":
            self._close_slice(self._slice_ops)
            self._left = self._slice_ops

    def mark(self, ops_total: int) -> bool:
        """The region has completed ``ops_total`` ops so far: close a slice
        here. A stretch without ops (a fleet cell connecting its sessions,
        or draining) is not part of the measured phase and is dropped.
        False once the region has ended, or on a pass that cuts no slices."""
        if self._region is None or self.mode != "timed":
            return False
        self._close_slice(ops_total - self._marked)
        self._marked = ops_total
        return True

    def end(self) -> Region:
        """Close the region. What a timed pass left after the last slice
        (shorter than a slice, or after the last mark) stays untimed."""
        now = time.process_time()
        region = self._region
        self._region = None
        if self.mode == "profile":
            self._profiler.disable()
            region.profile = ProfileTable.from_profiler(self._profiler)
            self._profiler = None
        elif self.mode == "memory":
            snapshot = tracemalloc.take_snapshot()
            region.traced_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            region.live_kb = live_kb_by_layer(snapshot, self.layer_map)
        region.cpu_s = now - self._yardstick_s - self._began
        return region

    # -- internals -----------------------------------------------------------

    def _cpu_clock(self) -> float:
        """Process CPU seconds so far, net of the yardstick's own."""
        return time.process_time() - self._yardstick_s

    def _calibrate(self) -> float:
        started = time.process_time()
        value = calibrate()
        self._yardstick_s += time.process_time() - started
        self.calibrations.append(value)
        return value

    def _close_slice(self, ops: int) -> None:
        cpu_s = time.process_time() - self._stamp
        if ops > 0:
            after = self._calibrate()
            before = after if self._calib is None else self._calib
            self._region.slices.append((ops, cpu_s, (before + after) / 2.0))
            self._calib = after
        else:
            # An idle stretch is dropped, and not worth a yardstick run (a
            # fleet cell spends 15 simulated s bootstrapping before its
            # first op); the next slice opens without a "before".
            self._calib = None
        self._stamp = time.process_time()
