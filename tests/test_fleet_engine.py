"""The fleet engine (the open-loop driver of ``repro.fleet.full``) on
what tests/test_fleet_full.py's anchor cell leaves alone: determinism
and seed sensitivity on the zk x wpaxos stack, and the rotating hotspot
driving WanKeeper token migration."""

import json

import pytest

from repro.fleet import FleetFullSpec, full, run_fleet_full

# Small cell: three sites, diurnal modulation on, four keys per site.
_SMALL = dict(
    n_sites=3,
    sessions_per_site=16,
    duration_ms=2000.0,
    site_ops_per_sec=30.0,
    seed=7,
)
_WPAXOS = dict(_SMALL, system="zk", substrate="wpaxos")


@pytest.fixture(autouse=True)
def small_keys(monkeypatch):
    monkeypatch.setattr(full, "KEYS_PER_SITE", 4)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_repeat_runs_bit_identical():
    a = run_fleet_full(FleetFullSpec(**_WPAXOS))
    b = run_fleet_full(FleetFullSpec(**_WPAXOS))
    assert a["completed_ops"] > 0
    assert _canon(a) == _canon(b)


def test_seed_changes_payload():
    a = run_fleet_full(FleetFullSpec(**_WPAXOS))
    b = run_fleet_full(FleetFullSpec(**dict(_WPAXOS, seed=8)))
    assert _canon(a) != _canon(b)


def test_hotspot_drives_token_migration(monkeypatch):
    """Half the ops go to a hotspot that circles the sites once per
    3 s "day", so each site's keys are contested in turn: the hub
    grants tokens back and forth. With no hotspot every write hits its
    own site's keys and the tokens settle after their first grants."""
    spec = FleetFullSpec(**dict(_SMALL, duration_ms=4000.0, write_fraction=0.5))
    monkeypatch.setattr(full, "DIURNAL_PERIOD_MS", 3000.0)
    monkeypatch.setattr(full, "HOTSPOT_FRACTION", 0.5)
    hot = run_fleet_full(spec)
    monkeypatch.setattr(full, "HOTSPOT_FRACTION", 0.0)
    cold = run_fleet_full(spec)
    # Same draws, so the same ops are offered; only their keys differ.
    assert hot["offered_ops"] == cold["offered_ops"]
    assert hot["token_migrations"] > 0
    assert hot["token_migrations"] > cold["token_migrations"]
