"""Seeded generator for N-site WAN topologies.

Produces ordinary :class:`repro.net.topology.Topology` objects, so the
generated fleets plug into the same ``Network``/deployment machinery as
the paper's hand-written three-region topology.

Sites are spread round-robin over six continents and grouped into
metros; a fraction of metros host two sites so every RTT class is
represented:

* **intra-metro** — two sites in the same metro area, ~1-2 ms one-way;
* **continental** — same continent, different metro, ~6-20 ms one-way;
* **transcontinental** — different continents, one-way delay grows with
  the longitudinal distance between them (~20-120 ms).

Naming is deterministic and carries the placement: ``eu03b`` is the
second site of the fourth European metro. All random draws come from a
single named :func:`repro.sim.rng.seeded_rng` stream consumed in site
index order, so the same ``(n_sites, seed)`` always yields the same
sites and the same delay matrix, bit for bit, on any interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.net.topology import DEFAULT_LOCAL_ONE_WAY_MS, Topology
from repro.sim.rng import seeded_rng, sha256

__all__ = [
    "CONTINENTS",
    "FleetSite",
    "build_fleet_topology",
    "fleet_sites",
    "fleet_topology",
    "topology_fingerprint",
]

#: (code, reference longitude in degrees) for the six inhabited
#: continents; the longitude drives both transcontinental delay and the
#: engine's follow-the-sun diurnal phase.
CONTINENTS: Tuple[Tuple[str, float], ...] = (
    ("na", -100.0),
    ("sa", -58.0),
    ("eu", 10.0),
    ("af", 25.0),
    ("as", 105.0),
    ("oc", 150.0),
)

#: Fraction of sites that join their continent's previous metro instead
#: of founding a new one (creates intra-metro pairs).
_SECOND_SITE_FRACTION = 0.25

# One-way delay classes, in ms.
_INTRA_METRO_MS = (0.8, 1.8)
_CONTINENTAL_BASE_MS = 6.0
_CONTINENTAL_PER_DEG = 0.15
_CONTINENTAL_JITTER_MS = 4.0
_TRANSCONTINENTAL_BASE_MS = 18.0
_TRANSCONTINENTAL_PER_DEG = 0.45
_TRANSCONTINENTAL_JITTER_MS = 8.0


@dataclass(frozen=True)
class FleetSite:
    """One generated site: placement metadata next to its name."""

    index: int
    name: str
    continent: str
    metro: int  # metro index within the continent
    longitude: float  # degrees, drives transcontinental delay + diurnal phase


def fleet_sites(n_sites: int, seed: int = 42) -> List[FleetSite]:
    """The deterministic site list for ``(n_sites, seed)``."""
    if n_sites < 2:
        raise ValueError("a fleet needs at least 2 sites")
    rng = seeded_rng(seed, "fleet-sites")
    sites: List[FleetSite] = []
    # Per-continent bookkeeping, indexed by continent position (lists,
    # never dicts keyed by anything unordered).
    metro_count = [0] * len(CONTINENTS)
    last_metro_slots = [0] * len(CONTINENTS)
    metro_longitude = [0.0] * len(CONTINENTS)
    for index in range(n_sites):
        c = index % len(CONTINENTS)
        code, base_longitude = CONTINENTS[c]
        join_previous = (
            metro_count[c] > 0
            and last_metro_slots[c] == 1
            and rng.random() < _SECOND_SITE_FRACTION
        )
        if join_previous:
            metro = metro_count[c] - 1
            slot = last_metro_slots[c]
            last_metro_slots[c] += 1
            longitude = metro_longitude[c]
        else:
            metro = metro_count[c]
            metro_count[c] += 1
            last_metro_slots[c] = 1
            slot = 0
            longitude = base_longitude + rng.uniform(-20.0, 20.0)
            metro_longitude[c] = longitude
        name = f"{code}{metro:02d}{chr(ord('a') + slot)}"
        sites.append(FleetSite(index, name, code, metro, round(longitude, 3)))
    return sites


def _angular_distance(lon_a: float, lon_b: float) -> float:
    delta = abs(lon_a - lon_b) % 360.0
    return min(delta, 360.0 - delta)


def build_fleet_topology(
    sites: List[FleetSite],
    seed: int = 42,
    local_one_way_ms: float = DEFAULT_LOCAL_ONE_WAY_MS,
    jitter_fraction: float = 0.0,
) -> Topology:
    """Build the full pairwise delay matrix for a generated site list.

    Delays are drawn in a fixed ``i < j`` double loop from one named
    stream, so the matrix is a pure function of ``(sites, seed)``.
    """
    rng = seeded_rng(seed, "fleet-delays")
    one_way: Dict[FrozenSet[str], float] = {}
    for i in range(len(sites)):
        a = sites[i]
        for j in range(i + 1, len(sites)):
            b = sites[j]
            if a.continent == b.continent and a.metro == b.metro:
                delay = rng.uniform(*_INTRA_METRO_MS)
            elif a.continent == b.continent:
                delay = (
                    _CONTINENTAL_BASE_MS
                    + _CONTINENTAL_PER_DEG
                    * _angular_distance(a.longitude, b.longitude)
                    + rng.uniform(0.0, _CONTINENTAL_JITTER_MS)
                )
            else:
                delay = (
                    _TRANSCONTINENTAL_BASE_MS
                    + _TRANSCONTINENTAL_PER_DEG
                    * _angular_distance(a.longitude, b.longitude)
                    + rng.uniform(0.0, _TRANSCONTINENTAL_JITTER_MS)
                )
            one_way[frozenset({a.name, b.name})] = round(delay, 3)
    return Topology(
        [site.name for site in sites],
        one_way_ms=one_way,
        local_one_way_ms=local_one_way_ms,
        jitter_fraction=jitter_fraction,
    )


def fleet_topology(
    n_sites: int,
    seed: int = 42,
    local_one_way_ms: float = DEFAULT_LOCAL_ONE_WAY_MS,
    jitter_fraction: float = 0.0,
) -> Topology:
    """Convenience wrapper: generate sites and their delay matrix."""
    return build_fleet_topology(
        fleet_sites(n_sites, seed),
        seed=seed,
        local_one_way_ms=local_one_way_ms,
        jitter_fraction=jitter_fraction,
    )


def topology_fingerprint(topology: Topology) -> str:
    """A stable content digest of a topology's sites and delay matrix.

    Two topologies fingerprint equal iff they have the same site names,
    the same intra-site delay, and bit-identical one-way delays for
    every pair — the property the cross-hashseed / cross-executor
    determinism tests pin.
    """
    parts = [",".join(sorted(topology.sites))]
    parts.append(repr(topology.local_one_way_ms))
    for a, b, delay in topology.wan_pairs():
        parts.append(f"{a}|{b}|{delay!r}")
    payload = "\n".join(parts)
    return sha256(payload.encode("utf-8")).hexdigest()
