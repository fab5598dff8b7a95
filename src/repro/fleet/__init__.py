"""Fleet-scale workload tier: generated N-site topologies and an
open-loop driver against the real servers.

The paper's evaluation stops at three AWS regions and a handful of
closed-loop clients. This package is the "millions of users" tier on
top of the same simulation substrate:

* :mod:`repro.fleet.topology` — a seeded generator for N-site WAN
  topologies (N ~ 20-50) with realistic RTT classes (intra-metro /
  continental / transcontinental) and deterministic site naming,
  producing ordinary :class:`repro.net.topology.Topology` objects;
* :mod:`repro.fleet.full` — an **open-loop** traffic driver (Poisson
  arrivals per site, a follow-the-sun diurnal modulator, a rotating
  hotspot) injected into a real ZK/WanKeeper deployment on either
  substrate: idle-gap fast-forward, flyweight per-site client stations
  and shared op records make 10^5 concurrent real sessions affordable.

Everything here is bit-deterministic across PYTHONHASHSEED values and
across the in-process / warm-pool / spawn executors: all randomness
comes from named :func:`repro.sim.rng.seeded_rng` streams and no code
path iterates an unordered container.
"""

from repro.fleet.full import FleetFullSpec, FleetStation, run_fleet_full
from repro.fleet.topology import (
    CONTINENTS,
    FleetSite,
    build_fleet_topology,
    fleet_sites,
    fleet_topology,
    topology_fingerprint,
)

__all__ = [
    "CONTINENTS",
    "FleetFullSpec",
    "FleetSite",
    "FleetStation",
    "build_fleet_topology",
    "fleet_sites",
    "fleet_topology",
    "run_fleet_full",
    "topology_fingerprint",
]
