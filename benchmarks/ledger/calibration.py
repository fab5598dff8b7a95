"""The ledger's yardstick: a fixed stdlib-only loop, timed in host CPU seconds.

Host numbers on a shared box move with whatever else the box is doing
(the same seeded run has cost 7.2, 8.6 and 10.0 CPU-s here), so every
timed slice is bracketed by two runs of this loop and its rate is scaled
by how slow the loop ran against ``REFERENCE_S``.

The loop must never import ``repro``: ``repro.bench.calibrate()`` times
the repo's own kernel, so a kernel regression slows the yardstick with
the workload and cancels itself. The mix below (heap push/pop, dict
store, generator ``next``) is what the simulator's hot loop is made of,
in stdlib form, so interference slows both alike.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["REFERENCE_S", "calibrate"]

#: CPU seconds one :func:`calibrate` call took on the 2-core reference box
#: when the first baseline was measured. Only ratios against it are used,
#: so it fixes the unit of ``host_ops_per_s`` and nothing else.
REFERENCE_S = 0.0180

_ROUNDS = 20_000


def _ticks():
    value = 0
    while True:
        value += 1
        yield value


def calibrate() -> float:
    """Run the fixed loop once; return the host CPU seconds it took."""
    heap: list = []
    store: dict = {}
    push = heapq.heappush
    pop = heapq.heappop
    tick = _ticks().__next__
    # The loop allocates tuples; with the collector on, that would set off
    # collections whose cost is the size of the *workload's* heap (a fleet
    # cell's 10^4 sessions made one calibration run 5x slower).
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        for index in range(_ROUNDS):
            stamp = tick()
            push(heap, ((stamp * 7919) % 1009, stamp))
            store[stamp & 1023] = index
            if index & 1:
                pop(heap)
        while heap:
            pop(heap)
        return time.process_time() - started
    finally:
        if collecting:
            gc.enable()
