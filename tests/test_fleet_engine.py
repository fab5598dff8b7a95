"""Fleet session engine: determinism, scale, and model behaviour."""

import json
import tracemalloc

import pytest

from repro.fleet import FleetSpec, engine, run_fleet

# Small spec used by most behaviour tests: quick (<1s) but busy enough
# that every code path (hotspot, migration, queueing, horizon drop) runs.
_SMALL = dict(n_sites=4, sessions_per_site=500, duration_ms=5000.0, seed=7)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_repeat_runs_bit_identical():
    a = run_fleet(FleetSpec(**_SMALL))
    b = run_fleet(FleetSpec(**_SMALL))
    assert _canon(a) == _canon(b)


def test_seed_changes_payload():
    a = run_fleet(FleetSpec(**_SMALL))
    b = run_fleet(FleetSpec(**dict(_SMALL, seed=8)))
    assert _canon(a) != _canon(b)


def test_payload_is_json_plain():
    payload = run_fleet(FleetSpec(**_SMALL))
    assert json.loads(_canon(payload)) == json.loads(_canon(payload))
    assert payload["sessions"] == 4 * 500
    assert payload["completed_ops"] + payload["in_flight_at_horizon"] == (
        payload["offered_ops"]
    )


def test_poisson_arrivals_near_offered_rate(monkeypatch):
    monkeypatch.setattr(engine, "DIURNAL_AMPLITUDE", 0.0)
    spec = FleetSpec(**_SMALL)
    payload = run_fleet(spec)
    expected = spec.site_ops_per_sec * spec.n_sites
    assert abs(payload["offered_ops_per_sec"] - expected) / expected < 0.15


def test_hotspot_drives_token_migration(monkeypatch):
    monkeypatch.setattr(engine, "HOTSPOT_FRACTION", 0.5)
    hot = run_fleet(FleetSpec(**_SMALL))
    monkeypatch.setattr(engine, "HOTSPOT_FRACTION", 0.0)
    cold = run_fleet(FleetSpec(**_SMALL))
    assert hot["token_migrations"] > 0
    assert hot["token_migrations"] > cold["token_migrations"]
    # With no hotspot traffic every write hits the site's home shards,
    # which it owns from the start.
    assert cold["forwarded_writes"] == 0


def test_overload_builds_queue():
    # Offered load far beyond 1000/SERVICE_TIME_MS capacity must queue.
    over = run_fleet(FleetSpec(**dict(_SMALL, load_multiplier=8.0)))
    under = run_fleet(FleetSpec(**dict(_SMALL, load_multiplier=0.2)))
    assert over["mean_queue_ms"] > under["mean_queue_ms"]
    assert over["in_flight_at_horizon"] > under["in_flight_at_horizon"]


def test_busy_until_tie_queues_with_zero_wait(monkeypatch):
    """Arrivals landing exactly on a site's busy-until instant queue
    deterministically with zero wait — never double-served, never
    delayed. A fixed per-tick count with spacing == service time makes
    every op after a site's first hit the tie exactly (all instants are
    multiples of 2.5 ms, bit-exact in binary floating point)."""
    # 20 arrivals per 100 ms tick -> spacing 5.0 == service.
    monkeypatch.setattr(engine, "poisson", lambda rng, mean: 20)
    monkeypatch.setattr(engine, "SERVICE_TIME_MS", 5.0)
    tie = FleetSpec(n_sites=2, sessions_per_site=50, duration_ms=2000.0, seed=11)
    payload = run_fleet(tie)
    # Back-to-back service: each op starts exactly when its predecessor
    # ends, so nothing waits (and nothing is served concurrently — the
    # busy-until chain advances one full service time per op).
    assert payload["mean_queue_ms"] == 0.0
    assert payload["offered_ops"] == 2 * 20 * 20  # sites x ticks x per-tick
    # The tie is the exact boundary between idle and queued: any spacing
    # shortfall must surface as real queueing delay.
    monkeypatch.setattr(engine, "SERVICE_TIME_MS", 5.5)
    crowded = run_fleet(tie)
    assert crowded["mean_queue_ms"] > 0.0


def test_migration_threshold_one_migrates_first_touch(monkeypatch):
    monkeypatch.setattr(engine, "MIGRATION_THRESHOLD", 1)
    eager = run_fleet(FleetSpec(**_SMALL))
    monkeypatch.setattr(engine, "MIGRATION_THRESHOLD", 4)
    lazy = run_fleet(FleetSpec(**_SMALL))
    assert eager["token_migrations"] >= lazy["token_migrations"]


def test_spec_validation():
    with pytest.raises(ValueError):
        FleetSpec(n_sites=1)
    with pytest.raises(ValueError):
        FleetSpec(n_sites=engine.SHARDS + 1)
    with pytest.raises(ValueError):
        FleetSpec(duration_ms=0.0)


def test_hundred_thousand_sessions_memory_lean():
    """The acceptance cell: 20 sites x 5000 sessions = 10^5 concurrent
    open-loop sessions, bounded traced peak (array columns + sketches,
    no per-session objects). Duration is trimmed — memory scales with
    the session table, not the op count."""
    spec = FleetSpec(n_sites=20, sessions_per_site=5000, duration_ms=5000.0)
    assert spec.total_sessions == 100_000
    tracemalloc.start()
    payload = run_fleet(spec)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert payload["sessions"] == 100_000
    assert payload["active_sessions"] > 0
    # ~12 bytes/session of columns plus recorders; the committed cells
    # sit under 10 MB, so 48 MB trips on a per-session object or a
    # per-op tuple, not on noise.
    assert peak < 48 * 1024 * 1024


def test_fleet_cell_identical_across_executors():
    from repro.runner.executor import execute
    from repro.runner.scenario import Scenario

    scenario = Scenario.make("fleet", dict(_SMALL), suite="fleet")
    serial = execute([scenario], jobs=1)
    pooled = execute([scenario], jobs=2)
    # Report a dead or timed-out worker as itself, not as a KeyError.
    serial.raise_on_failure()
    pooled.raise_on_failure()
    assert serial.payload(scenario) == pooled.payload(scenario)
