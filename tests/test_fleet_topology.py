"""Fleet topology generator: determinism and WAN-realism invariants."""

import json
import subprocess
import sys

import pytest

from repro.fleet import (
    CONTINENTS,
    build_fleet_topology,
    fleet_sites,
    fleet_topology,
    topology_fingerprint,
)
from repro.fleet.topology import (
    _CONTINENTAL_BASE_MS,
    _INTRA_METRO_MS,
    _TRANSCONTINENTAL_BASE_MS,
)


def test_same_seed_same_fingerprint():
    a = fleet_topology(24, seed=7)
    b = fleet_topology(24, seed=7)
    assert topology_fingerprint(a) == topology_fingerprint(b)
    assert a.site_names() == b.site_names()


def test_different_seed_different_fingerprint():
    assert topology_fingerprint(fleet_topology(24, seed=7)) != (
        topology_fingerprint(fleet_topology(24, seed=8))
    )


def test_site_names_deterministic_and_unique():
    sites = fleet_sites(40, seed=42)
    names = [site.name for site in sites]
    assert len(set(names)) == 40
    assert names == [site.name for site in fleet_sites(40, seed=42)]
    # Deterministic naming scheme: continent code + metro + slot letter.
    for site in sites:
        assert site.name.startswith(site.continent)
        assert site.name[len(site.continent):-1].isdigit()


def test_rtt_symmetry_and_local_invariant():
    topology = fleet_topology(16, seed=3)
    names = topology.site_names()
    for a in names:
        assert topology.rtt(a, a) == 2.0 * topology.local_one_way_ms
        for b in names:
            assert topology.rtt(a, b) == topology.rtt(b, a)


def test_delay_classes_within_bounds():
    sites = fleet_sites(32, seed=11)
    topology = build_fleet_topology(sites, seed=11)
    by_name = {site.name: site for site in sites}
    lo_metro, hi_metro = _INTRA_METRO_MS
    for a, b, delay in topology.wan_pairs():
        sa, sb = by_name[a], by_name[b]
        assert delay > 0.0
        if sa.continent == sb.continent and sa.metro == sb.metro:
            assert lo_metro <= delay <= hi_metro
        elif sa.continent == sb.continent:
            assert delay >= _CONTINENTAL_BASE_MS
            assert delay < _TRANSCONTINENTAL_BASE_MS + 200.0
        else:
            assert delay >= _TRANSCONTINENTAL_BASE_MS


def test_every_pair_has_a_delay():
    topology = fleet_topology(20, seed=5)
    n = len(topology.site_names())
    assert len(topology.wan_pairs()) == n * (n - 1) // 2


def test_covers_multiple_continents_and_sizes():
    for n in (2, 5, 23, 50):
        sites = fleet_sites(n, seed=9)
        assert len(sites) == n
        continents = {site.continent for site in sites}
        assert len(continents) == min(n, len(CONTINENTS))


def test_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        fleet_sites(1)


_SUBPROCESS_SNIPPET = """
import json, sys
from repro.fleet import fleet_topology, topology_fingerprint
t = fleet_topology(20, seed=42)
print(json.dumps({
    "fingerprint": topology_fingerprint(t),
    "names": t.site_names(),
}))
"""


def _fingerprint_under_hashseed(hashseed: str) -> dict:
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fingerprint_identical_across_hashseeds():
    a = _fingerprint_under_hashseed("0")
    b = _fingerprint_under_hashseed("4242")
    assert a == b

