"""Fleet-scale workload tier: generated N-site topologies and an
open-loop, memory-lean session engine.

The paper's evaluation stops at three AWS regions and a handful of
closed-loop clients. This package is the "millions of users" tier on
top of the same simulation substrate:

* :mod:`repro.fleet.topology` — a seeded generator for N-site WAN
  topologies (N ~ 20-50) with realistic RTT classes (intra-metro /
  continental / transcontinental) and deterministic site naming,
  producing ordinary :class:`repro.net.topology.Topology` objects;
* :mod:`repro.fleet.engine` — an **open-loop** traffic driver
  (Poisson arrivals per site, with a diurnal follow-the-sun
  modulator) over a sharded key/token space, backed by
  array-columns instead of per-session coroutines so a single run
  sustains 10^5-10^6 concurrent sessions in tens of megabytes;
* :mod:`repro.fleet.full` — the same open-loop arrival machinery
  injected into a **real** ZK/WanKeeper deployment on either substrate:
  idle-gap fast-forward, flyweight per-site client stations, and
  allocation-free messaging make 10^4+ concurrent real sessions
  affordable.

Everything here is bit-deterministic across PYTHONHASHSEED values and
across the in-process / warm-pool / spawn executors: all randomness
comes from named :func:`repro.sim.rng.seeded_rng` streams and no code
path iterates an unordered container.
"""

from repro.fleet.engine import FleetSpec, run_fleet
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
    "FleetSpec",
    "FleetStation",
    "build_fleet_topology",
    "fleet_sites",
    "fleet_topology",
    "run_fleet",
    "run_fleet_full",
    "topology_fingerprint",
]
