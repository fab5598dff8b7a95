"""Open-loop fleet traffic driver and memory-lean session engine.

The closed-loop YCSB clients in :mod:`repro.workloads.driver` model the
paper's setup — one coroutine per client, each waiting for its previous
operation before issuing the next. That shape cannot reach "millions of
users": a generator coroutine plus per-op tuples costs kilobytes per
session, and closed-loop arrival rates collapse as soon as latency
rises, hiding saturation behaviour entirely.

This engine inverts both choices:

* **Open-loop arrivals** — each site offers load at a configured rate
  (a Poisson arrival process) regardless of completions,
  so pushing the offered load past a site's service capacity produces
  real queueing delay and a visible saturation knee, exactly the axis
  the coordination-evaluation literature measures.
* **Batched session state machines** — one kernel process *per site*
  steps all of that site's sessions in arrival-time order each tick.
  Session state lives in flat ``array`` columns (ops issued, last
  completion instant), indexed by integer session id; there are no
  per-session objects and no per-op tuples, so 10^6 concurrent sessions
  cost ~12 bytes each instead of kilobytes.
* **Sharded key/token space** — keys are aggregated into shards; a
  token directory (three more array columns) tracks the owning site,
  the consecutive-access streak, and the streak's site per shard,
  implementing the WanKeeper consecutive-access migration rule at fleet
  scale. Writes commit locally when the site holds the shard token and
  are forwarded through the hub otherwise; ``MIGRATION_THRESHOLD``
  consecutive foreign accesses migrate the token (counted per site).
* **Follow-the-sun diurnal modulator** — each site's offered rate is
  modulated by a cosine of its local solar time (from the generated
  site's longitude), and a global hotspot window rotates through the
  shard space once per simulated day, so the token-ownership map chases
  the sun across continents.

Latency is recorded through :class:`repro.workloads.stats
.LatencyRecorder` in its streaming ``sketch`` mode (exact counts/means,
fixed-size reservoir percentiles), keeping memory flat in the operation
count.

Determinism: every stochastic choice draws from a per-site named
``seeded_rng`` stream consumed in (tick, arrival) order; sites are
stepped in index order at each tick; no unordered iteration anywhere.
Payloads are pure functions of the spec, bit-identical across
PYTHONHASHSEED values and executors.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Any, Dict

from repro.fleet.topology import build_fleet_topology, fleet_sites
from repro.sim.kernel import Environment
from repro.sim.rng import seeded_rng
from repro.workloads.stats import LatencyRecorder

__all__ = ["FleetSpec", "diurnal_factor", "poisson", "run_fleet"]


#: Simulated ms per batched step of every site.
TICK_MS = 100.0
WRITE_FRACTION = 0.5
#: Token shards the key space is aggregated into.
SHARDS = 4096
#: Consecutive foreign writes that migrate a shard's token.
MIGRATION_THRESHOLD = 2
#: The hub is the first generated site.
HUB_INDEX = 0
#: Follow-the-sun modulation: the offered rate swings by +-60 % over one
#: simulated "day". 15 % of ops go to a hotspot that circles the key
#: space once per day (here 5 % of the shards wide). :mod:`repro.fleet.full`
#: reads the diurnal and hotspot-share constants from here.
DIURNAL_AMPLITUDE = 0.6
DIURNAL_PERIOD_MS = 20000.0
HOTSPOT_FRACTION = 0.15
HOTSPOT_WIDTH_FRACTION = 0.05
#: Per-op service time at a site; sets the saturation point
#: (capacity = 1000 / SERVICE_TIME_MS ≈ 333 ops/sec/site). Calibrated so
#: the 2.0x load sweep crosses the knee at diurnal peaks while 1.0x stays
#: below it.
SERVICE_TIME_MS = 3.0
#: Latency samples each site's sketch keeps for its percentiles.
RESERVOIR_SIZE = 2048


@dataclass
class FleetSpec:
    """Parameters of one fleet-tier run (all JSON scalars, cell-ready)."""

    n_sites: int = 20
    sessions_per_site: int = 5000
    duration_ms: float = 60000.0
    #: Offered load per site at load_multiplier 1.0 and diurnal peak 1.0.
    site_ops_per_sec: float = 150.0
    load_multiplier: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        if self.sessions_per_site < 1:
            raise ValueError("sessions_per_site must be positive")
        if SHARDS < self.n_sites:
            raise ValueError("need at least one shard per site")
        if self.duration_ms <= 0:
            raise ValueError("durations must be positive")

    @property
    def total_sessions(self) -> int:
        return self.n_sites * self.sessions_per_site


def diurnal_factor(phase: float, t_ms: float) -> float:
    """Follow-the-sun modulation of a site's offered rate at ``t_ms``:
    a cosine of the site's local time of day (``phase`` in days)."""
    day_fraction = t_ms / DIURNAL_PERIOD_MS + phase
    return 1.0 + DIURNAL_AMPLITUDE * math.cos(2.0 * math.pi * day_fraction)


def poisson(rng, mean: float) -> int:
    """One Poisson draw from ``rng`` (Knuth for small means, normal
    approximation above — both consume only this stream)."""
    if mean <= 0.0:
        return 0
    if mean < 30.0:
        threshold = math.exp(-mean)
        k = 0
        p = 1.0
        while True:
            p *= rng.random()
            if p <= threshold:
                return k
            k += 1
    n = int(round(rng.gauss(mean, math.sqrt(mean))))
    return n if n > 0 else 0


class _FleetEngine:
    """All run state for one fleet simulation (built fresh per run)."""

    def __init__(self, spec: FleetSpec):
        self.spec = spec
        self.sites = fleet_sites(spec.n_sites, spec.seed)
        self.topology = build_fleet_topology(self.sites, seed=spec.seed)
        n = spec.n_sites
        names = [site.name for site in self.sites]
        # Dense index->index RTT matrix: the per-op hot loop never
        # touches string keys or frozensets.
        self.rtt = [
            [self.topology.rtt(names[i], names[j]) for j in range(n)]
            for i in range(n)
        ]
        self.local_rtt = 2.0 * self.topology.local_one_way_ms
        # Diurnal phase per site from its longitude: local solar noon at
        # phase 0 (site at longitude L leads UTC by L/360 of a day).
        self.phase = [site.longitude / 360.0 for site in self.sites]

        # -- session table: flat columns, ids are (site * per_site + k).
        total = spec.total_sessions
        self.session_ops = array("I", bytes(4 * total))
        self.session_last_ms = array("d", bytes(8 * total))

        # -- sharded token directory.
        shards = SHARDS
        self.owner = array("h", (s * n // shards for s in range(shards)))
        self.streak_site = array("h", self.owner)
        self.streak = array("H", bytes(2 * shards))

        # -- per-site open-loop accounting.
        self.rngs = [seeded_rng(spec.seed, f"fleet-site-{i:04d}") for i in range(n)]
        self.busy_until = [0.0] * n
        self.offered = [0] * n
        self.completed = [0] * n
        self.dropped_after_horizon = [0] * n
        self.migrations_in = [0] * n  # tokens pulled *to* site i
        self.forwarded_writes = 0
        self.local_writes = 0
        self.queue_wait_sum = 0.0
        self.recorders = [
            LatencyRecorder(names[i], mode="sketch", reservoir_size=RESERVOIR_SIZE)
            for i in range(n)
        ]

        # Home shard range per site (even partition of the shard space).
        self.home_start = [i * shards // n for i in range(n)]
        self.home_width = [
            max(1, (i + 1) * shards // n - i * shards // n) for i in range(n)
        ]
        self.hot_width = max(1, int(shards * HOTSPOT_WIDTH_FRACTION))

    # -- per-tick batch step -------------------------------------------------

    def step_site(self, site_index: int, now_ms: float) -> None:
        """Process one site's arrivals for the tick starting at now_ms."""
        spec = self.spec
        rng = self.rngs[site_index]
        mean = (
            spec.site_ops_per_sec
            * spec.load_multiplier
            * diurnal_factor(self.phase[site_index], now_ms)
            * TICK_MS
            / 1000.0
        )
        arrivals = poisson(rng, mean)
        if arrivals <= 0:
            return
        self.offered[site_index] += arrivals

        # Bind everything the per-arrival loop touches to locals.
        per_site = spec.sessions_per_site
        session_base = site_index * per_site
        rtt_row = self.rtt[site_index]
        hub_rtt = rtt_row[HUB_INDEX]
        owner = self.owner
        streak = self.streak
        streak_site = self.streak_site
        shards = SHARDS
        recorder = self.recorders[site_index]
        session_ops = self.session_ops
        session_last = self.session_last_ms
        busy = self.busy_until[site_index]
        horizon = spec.duration_ms
        spacing = TICK_MS / arrivals
        hot_center = int((now_ms / DIURNAL_PERIOD_MS % 1.0) * shards)

        completed = 0
        dropped = 0
        for k in range(arrivals):
            arrival = now_ms + (k + 0.5) * spacing
            session = session_base + rng.randrange(per_site)
            if rng.random() < HOTSPOT_FRACTION:
                shard = (hot_center + rng.randrange(self.hot_width)) % shards
            else:
                shard = self.home_start[site_index] + rng.randrange(
                    self.home_width[site_index]
                )
            is_write = rng.random() < WRITE_FRACTION
            if is_write:
                holder = owner[shard]
                if holder == site_index:
                    latency = self.local_rtt
                    self.local_writes += 1
                else:
                    # Forwarded through the hub to the owning site.
                    latency = hub_rtt + self.rtt[HUB_INDEX][holder]
                    self.forwarded_writes += 1
                    if streak_site[shard] == site_index:
                        run = streak[shard] + 1
                    else:
                        streak_site[shard] = site_index
                        run = 1
                    if run >= MIGRATION_THRESHOLD:
                        # Token migrates here: one extra hub round trip.
                        latency += hub_rtt
                        owner[shard] = site_index
                        streak[shard] = 0
                        self.migrations_in[site_index] += 1
                    else:
                        streak[shard] = run
            else:
                latency = self.local_rtt
            # Single-server queue: an op arriving while the server is
            # busy waits until busy-until. The tie (arrival exactly at
            # busy-until) starts service at that same instant with zero
            # queue wait — it is queued behind the op that completes
            # there, never served concurrently with it, so busy-until
            # still advances by one full service time per op.
            if arrival >= busy:
                start_service = arrival
            else:
                start_service = busy
            busy = start_service + SERVICE_TIME_MS
            queue_wait = start_service - arrival
            self.queue_wait_sum += queue_wait
            completion = busy + latency
            session_ops[session] += 1
            if completion > session_last[session]:
                session_last[session] = completion
            if completion <= horizon:
                completed += 1
                recorder.record(
                    "write" if is_write else "read",
                    arrival,
                    completion - arrival,
                )
            else:
                dropped += 1
        self.busy_until[site_index] = busy
        self.completed[site_index] += completed
        self.dropped_after_horizon[site_index] += dropped

    # -- result payload ------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        spec = self.spec
        duration_s = spec.duration_ms / 1000.0
        offered = sum(self.offered)
        completed = sum(self.completed)
        active = sum(1 for count in self.session_ops if count)
        merged = self.recorders[0]
        for recorder in self.recorders[1:]:
            merged = merged.merged(recorder)

        def maybe(fn, *args):
            try:
                return fn(*args)
            except ValueError:
                return None

        per_site_completed = {
            self.sites[i].name: self.completed[i] for i in range(spec.n_sites)
        }
        per_site_migrations = {
            self.sites[i].name: self.migrations_in[i]
            for i in range(spec.n_sites)
        }
        writes = self.local_writes + self.forwarded_writes
        return {
            "n_sites": spec.n_sites,
            "sessions": spec.total_sessions,
            "active_sessions": active,
            "offered_ops": offered,
            "completed_ops": completed,
            "in_flight_at_horizon": sum(self.dropped_after_horizon),
            "offered_ops_per_sec": round(offered / duration_s, 3),
            "throughput_ops_per_sec": round(completed / duration_s, 3),
            "token_migrations": sum(self.migrations_in),
            "forwarded_writes": self.forwarded_writes,
            "local_write_fraction": (
                round(self.local_writes / writes, 6) if writes else None
            ),
            "mean_queue_ms": (
                round(self.queue_wait_sum / offered, 6) if offered else 0.0
            ),
            "read_p50_ms": maybe(merged.percentile_latency, 50, "read"),
            "write_p50_ms": maybe(merged.percentile_latency, 50, "write"),
            "write_p99_ms": maybe(merged.percentile_latency, 99, "write"),
            "write_mean_ms": maybe(merged.mean_latency, "write"),
            "per_site_completed": per_site_completed,
            "per_site_migrations": per_site_migrations,
        }


def run_fleet(spec: FleetSpec) -> Dict[str, Any]:
    """Run one fleet-tier simulation to completion and return its payload.

    One kernel process per *site* (not per session) steps the batched
    session table; the simulation ends when the configured duration has
    elapsed at every site.
    """
    engine = _FleetEngine(spec)
    env = Environment()
    ticks = int(math.ceil(spec.duration_ms / TICK_MS))

    def site_process(site_index: int):
        for _tick in range(ticks):
            engine.step_site(site_index, env.now)
            yield env.timeout(TICK_MS)

    for i in range(spec.n_sites):
        env.process(site_process(i), name=f"fleet-site-{i}")
    env.run()
    return engine.payload()
