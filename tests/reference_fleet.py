"""The pre-PR-17 fleet driver and op-issue path, kept as differential oracles.

``repro.fleet.full`` has one driver (the idle-gap fast-forward scan) and
one allocation path (op records shared per key, one ``OpRequest`` per op).
What each replaced lives here, one mechanism per class so a divergence
names its cause:

* ``PerTickEngine`` — a generator process that wakes the kernel once per
  tick and calls the product engine's own ``_schedule_tick``, so the draws
  are the product's and only the walk over the tick grid differs.
* ``FreshAllocationEngine`` — stations that build a new op record for
  every operation instead of sharing one per key: what a naive
  per-session client would allocate.

Slow, but simple enough to read as the specification:
``tests/test_fleet_full.py`` runs the same specs through these and the
product and demands byte-identical payloads. Test-only — nothing under
``src/`` may import this.
"""

from repro.fleet.full import PAYLOAD_BYTES, _CXID_SPAN, FleetStation, _FleetFullEngine
from repro.zk.ops import GetDataOp, SetDataOp
from repro.zk.protocol import OpRequest


class PerTickEngine(_FleetFullEngine):
    """One kernel wake per tick, identical draws."""

    #: Ticks on which some site had an arrival (the rest were quiescent).
    busy_ticks = 0

    def _start_driver(self):
        self.env.process(self._per_tick_driver(), name="fleet-driver")

    def _per_tick_driver(self):
        env = self.env
        tick_ms = self.spec.tick_ms
        ticks = self._ticks
        for tick_index in range(ticks):
            self.busy_ticks += self._schedule_tick(tick_index)
            if tick_index + 1 < ticks:
                yield env.timeout(tick_ms)


class FreshStation(FleetStation):
    """Fresh op records per op; nothing shared."""

    __slots__ = ()

    def _issue(self, code):
        is_write = code & 1
        rest = code >> 1
        n_keys = len(self._key_paths)
        key_index = rest % n_keys
        sess = rest // n_keys
        session_id = self.session_ids[sess]
        if session_id is None:
            self.not_connected_drops += 1
            return
        cxid = self.cxids[sess] + 1
        self.cxids[sess] = cxid
        path = self._key_paths[key_index]
        op = (
            SetDataOp(path, b"w" * PAYLOAD_BYTES)
            if is_write
            else GetDataOp(path)
        )
        now = self.env.now
        self.inflight[sess * _CXID_SPAN + cxid] = -now if is_write else now
        self.ops_issued += 1
        self.net.send(
            self.aliases[sess], self.server_addr, OpRequest(session_id, cxid, op)
        )


class FreshAllocationEngine(_FleetFullEngine):
    station_class = FreshStation
