"""Fleet cells: the product against its per-tick-driver and
fresh-allocation oracles (tests/reference_fleet.py), flyweight sessions,
spec validation, op conservation, the offered rate and the saturation
knee of the open-loop driver, the 10^4-session resource anchor, and the
kernel/session primitives they lean on."""

import hashlib
import json
import tracemalloc

import pytest

from repro.fleet import FleetFullSpec, full, run_fleet_full
from repro.fleet.full import _FleetFullEngine
from repro.sim.kernel import Environment, SimulationError
from repro.workloads import percentile
from repro.zk.sessions import SessionTracker
from tests.reference_fleet import FreshAllocationEngine, PerTickEngine

# Small cell used by most tests: three sites, real WanKeeper stack,
# diurnal modulation on, four keys per site (the ``small_keys`` fixture).
_SMALL = dict(
    n_sites=3,
    sessions_per_site=16,
    duration_ms=2000.0,
    site_ops_per_sec=30.0,
    seed=7,
)

# Sparse flat-modulation cell (the ``sparse_ticks`` fixture: 1 ms ticks,
# no diurnal modulation): the idle-gap fast-forward scan crosses long
# runs of empty ticks.
_SPARSE = dict(
    n_sites=3,
    sessions_per_site=16,
    duration_ms=4000.0,
    site_ops_per_sec=4.0,
    seed=7,
)


@pytest.fixture
def small_keys(monkeypatch):
    monkeypatch.setattr(full, "KEYS_PER_SITE", 4)


@pytest.fixture
def sparse_ticks(small_keys, monkeypatch):
    monkeypatch.setattr(FleetFullSpec, "tick_ms", 1.0)
    monkeypatch.setattr(full, "DIURNAL_AMPLITUDE", 0.0)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _run(base, **overrides):
    return run_fleet_full(FleetFullSpec(**{**base, **overrides}))


def _run_engine(engine_cls, base):
    engine = engine_cls(FleetFullSpec(**base))
    return engine, engine.run()


# -- determinism and equivalence with the reference oracles -------------------


def test_repeat_runs_bit_identical(small_keys):
    assert _canon(_run(_SMALL)) == _canon(_run(_SMALL))


def test_fast_forward_matches_naive_driver(small_keys):
    _, reference = _run_engine(PerTickEngine, _SMALL)
    assert _canon(_run(_SMALL)) == _canon(reference)


def test_fast_forward_matches_naive_on_sparse_flat_cell(sparse_ticks):
    product, payload = _run_engine(_FleetFullEngine, _SPARSE)
    reference, reference_payload = _run_engine(PerTickEngine, _SPARSE)
    assert _canon(payload) == _canon(reference_payload)
    # Quiescent ticks cost zero kernel events, exactly: the reference
    # spends one more event than the product per tick on which no site
    # had an arrival (4 000 ticks, 49 busy), and not one besides.
    quiescent = reference._ticks - reference.busy_ticks
    assert reference.env._seq - product.env._seq == quiescent == 3951


def test_shared_op_records_match_fresh_allocations(small_keys):
    _, reference = _run_engine(FreshAllocationEngine, _SMALL)
    assert _canon(_run(_SMALL)) == _canon(reference)


def test_seed_changes_payload(small_keys):
    assert _canon(_run(_SMALL)) != _canon(_run(_SMALL, seed=8))


def test_golden_digest_pinned(small_keys):
    """The small cell's payload is a pure function of the spec: any
    change to arrival draws, scheduling order, message routing, or the
    protocol stack shows up here. Update deliberately, never to make
    CI pass."""
    digest = hashlib.sha256(_canon(_run(_SMALL)).encode()).hexdigest()
    assert digest == (
        "13fda66f7b9b097aba7dcbbef1a4129a3fc80511520c0cdaba1c05cec30b7d20"
    )


# -- cells across systems and substrates --------------------------------------


def test_zk_zab_cell_completes_ops(small_keys):
    payload = _run(_SMALL, system="zk", substrate="zab")
    assert payload["system"] == "zk"
    assert payload["completed_ops"] > 0
    assert payload["failed_ops"] == 0


def test_zk_wpaxos_cell_completes_ops(small_keys):
    payload = _run(_SMALL, system="zk", substrate="wpaxos")
    assert payload["substrate"] == "wpaxos"
    assert payload["completed_ops"] > 0


_BAD_SPECS = [
    (dict(n_sites=1), "n_sites"),
    (dict(duration_ms=0.0), "durations"),
    (dict(system="wankeeper", substrate="wpaxos"), "zab substrate only"),
    (dict(site_ops_per_sec=-1.0), "offered load"),
    (dict(load_multiplier=-2), "offered load"),
]


@pytest.mark.parametrize(
    "bad, complaint", _BAD_SPECS, ids=["-".join(bad) for bad, _ in _BAD_SPECS]
)
def test_bad_spec_is_rejected_at_construction(bad, complaint):
    # A diagnostic from the spec, never a stack trace from inside the run.
    with pytest.raises(ValueError, match=complaint):
        FleetFullSpec(**{**_SMALL, **bad})


def test_all_sessions_connect_and_ops_flow(small_keys):
    payload = _run(_SMALL)
    spec = FleetFullSpec(**_SMALL)
    assert payload["sessions"] == spec.total_sessions
    assert payload["not_connected_drops"] == 0
    assert payload["unexpected_messages"] == 0
    assert payload["completed_ops"] > 0
    assert (
        payload["completed_ops"] + payload["failed_ops"]
        + payload["in_flight_at_horizon"] == payload["issued_ops"]
    )
    # WanKeeper migrates key tokens toward the rotating hotspot.
    assert payload["token_migrations"] > 0


def test_payload_is_json_plain_and_excludes_perf_toggles(small_keys):
    payload = _run(_SMALL)
    assert json.loads(_canon(payload)) == payload


# -- the open-loop driver: conservation, offered rate, knee, executors -------

_STACKS = [("wankeeper", "zab"), ("zk", "zab"), ("zk", "wpaxos")]


@pytest.mark.parametrize(
    "system, substrate", _STACKS, ids=["-".join(stack) for stack in _STACKS]
)
def test_ops_are_conserved(small_keys, system, substrate):
    """Every offered op is issued or dropped for want of a session, and
    every issued op completes, fails or is still in flight at the horizon."""
    payload = _run(_SMALL, system=system, substrate=substrate)
    assert payload["offered_ops"] == (
        payload["issued_ops"] + payload["not_connected_drops"]
    )
    assert payload["issued_ops"] == (
        payload["completed_ops"] + payload["failed_ops"]
        + payload["in_flight_at_horizon"]
    )
    assert payload["in_flight_at_horizon"] >= 0


def test_poisson_arrivals_near_offered_rate(small_keys, monkeypatch):
    monkeypatch.setattr(full, "DIURNAL_AMPLITUDE", 0.0)
    spec = FleetFullSpec(**_SMALL)
    payload = run_fleet_full(spec)
    expected = spec.site_ops_per_sec * spec.n_sites
    assert abs(payload["offered_ops_per_sec"] - expected) / expected < 0.15


#: The ``fleet --small`` anchor: 8 x 1 250 real sessions for 4 s.
_ANCHOR = dict(n_sites=8, sessions_per_site=1250, duration_ms=4000.0,
               site_ops_per_sec=40.0, seed=42)


@pytest.fixture(scope="module")
def overloaded_anchor():
    """The anchor at 7x, past the hub's knee: its engine and payload."""
    return _run_engine(_FleetFullEngine, dict(_ANCHOR, load_multiplier=7.0))


def test_overload_builds_a_backlog(overloaded_anchor):
    """At 7x the hub's backlog stretches the write tail, and at 1x and 7x
    alike every op of the anchor is answered by the horizon. (The 7x
    writes once left in flight were the hub serializing a write twice and
    stranding its token; see ``tests/test_stranded_token.py``.)"""
    under = run_fleet_full(FleetFullSpec(**_ANCHOR))
    _, over = overloaded_anchor
    assert under["in_flight_at_horizon"] == 0
    assert over["in_flight_at_horizon"] == 0
    assert over["write_p99_ms"] > 4 * under["write_p99_ms"]


def test_fleet_percentiles_cover_every_station_sample(overloaded_anchor):
    """The payload's write percentiles are those of every write any
    station recorded, each station weighted by its own traffic."""
    engine, payload = overloaded_anchor
    writes = sorted(
        latency
        for station in engine.stations
        for latency in station.recorder.latencies("write")
    )
    assert len(writes) == sum(
        station.recorder.count("write") for station in engine.stations
    )
    # More writes than any fixed-size sample of them would keep.
    assert len(writes) > 1024
    assert payload["write_p50_ms"] == percentile(writes, 50)
    assert payload["write_p99_ms"] == percentile(writes, 99)


def test_fleet_cell_identical_across_executors():
    from repro.runner.executor import execute
    from repro.runner.scenario import Scenario

    scenario = Scenario.make("fleet_full", dict(_SMALL), suite="fleet")
    serial = execute([scenario], jobs=1)
    pooled = execute([scenario], jobs=2)
    # Report a dead or timed-out worker as itself, not as a KeyError.
    serial.raise_on_failure()
    pooled.raise_on_failure()
    assert serial.payload(scenario) == pooled.payload(scenario)


def test_ten_thousand_real_sessions_memory_lean():
    """The full-stack anchor: 8 sites x 1250 real sessions on wankeeper x
    zab, every op answered by the horizon, traced peak under 50 MB (a
    floor of 200 000 sessions per GB). Host time is the ledger's job
    (``fleet_open`` ``host_ops_per_s``), so no wall-clock ceiling."""
    spec = FleetFullSpec(n_sites=8, sessions_per_site=1250, duration_ms=6000.0)
    tracemalloc.start()
    try:
        payload = run_fleet_full(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["sessions"] == 10_000
    assert payload["failed_ops"] == 0
    assert payload["in_flight_at_horizon"] == 0
    assert peak < 50e6


# -- kernel: call_at ----------------------------------------------------------


def test_call_at_orders_by_time_then_fifo():
    env = Environment()
    log = []
    env.call_at(5.0, log.append, "b")
    env.call_at(2.0, log.append, "a")
    env.call_at(5.0, log.append, "c")
    env.run()
    assert log == ["a", "b", "c"]
    assert env.now == 5.0


def test_call_at_current_instant_runs_before_later_events():
    env = Environment()
    log = []

    def now_cb(_):
        env.call_at(env.now, log.append, "same-instant")

    env.call_at(1.0, now_cb, None)
    env.call_at(1.0, log.append, "later-seq")
    env.run()
    # The same-instant call_at lands in the current batch, after the
    # already-queued same-time event — identical to call_soon ordering.
    assert log == ["later-seq", "same-instant"]


def test_call_at_rejects_past_times():
    env = Environment()
    env.call_at(3.0, lambda _arg: None)
    env.run()
    with pytest.raises(SimulationError):
        env.call_at(1.0, lambda _arg: None)


# -- session tracker: watermark, client index, live snapshot ------------------


def test_expiry_watermark_skips_scan_until_first_deadline():
    tracker = SessionTracker("s")
    tracker.create("c1", timeout_ms=100.0, now=0.0)
    tracker.create("c2", timeout_ms=500.0, now=0.0)
    assert tracker.expired_sessions(50.0) == []
    assert tracker.expired_sessions(100.0) == []  # inclusive bound holds
    due = tracker.expired_sessions(150.0)
    assert [s.client for s in due] == ["c1"]
    # Unmarked overdue sessions are re-reported on every later call.
    assert [s.client for s in tracker.expired_sessions(160.0)] == ["c1"]
    tracker.mark_expired(due[0].session_id)
    assert tracker.expired_sessions(400.0) == []
    assert [s.client for s in tracker.expired_sessions(501.0)] == ["c2"]


def test_watermark_tracks_touch_and_new_sessions():
    tracker = SessionTracker("s")
    first = tracker.create("c1", timeout_ms=100.0, now=0.0)
    # A scan re-tightens the bound; touching afterwards moves the real
    # deadline later and the next scans must still respect it.
    assert tracker.expired_sessions(90.0) == []
    tracker.touch(first.session_id, 90.0)
    assert tracker.expired_sessions(150.0) == []
    assert [s.session_id for s in tracker.expired_sessions(191.0)] == [
        first.session_id
    ]


def test_find_by_client_uses_index_and_falls_back():
    tracker = SessionTracker("s")
    assert tracker.find_by_client("nobody") is None
    first = tracker.create("c1", timeout_ms=100.0, now=0.0)
    second = tracker.create("c1", timeout_ms=100.0, now=1.0)
    assert tracker.find_by_client("c1") is second
    # Indexed (newest) session dies: the creation-order fallback must
    # still surface the older live session.
    tracker.mark_expired(second.session_id)
    assert tracker.find_by_client("c1") is first
    tracker.mark_expired(first.session_id)
    assert tracker.find_by_client("c1") is None
