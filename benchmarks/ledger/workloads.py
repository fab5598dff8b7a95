"""The ledger's seven workloads, driven through ``repro``'s public API.

Three drivers share one result shape (:class:`Outcome`):

* **closed loop** (``wk_local``, ``wk_contended``, ``zk_readheavy``,
  ``wpaxos_mixed``) — 2 synchronous YCSB clients at each of the 3 sites;
  a slow system receives less load;
* **paced with faults** (``wk_faulty``) — 8 clients per site, each with
  one op *due* every 250 ms and timed from its due instant, so requests
  stay due while a site has no leader and the outage is counted;
* **open loop** (``fleet_open``, ``fleet_overload``) — ``run_fleet_full``
  cells: Poisson arrivals with follow-the-sun modulation and a rotating
  hotspot over 8 sites x 1 250 real sessions. Arrivals fire at exact
  ``call_at`` instants, so the generator never runs late in simulated
  time; the harness checks issued == offered - not-connected drops.

Every simulated number is a pure function of ``(workload, size, seed)``;
``Outcome.sim`` and ``Outcome.counters`` must repeat exactly.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.consistency import HistoryRecorder, check_linearizable_per_key
from repro.experiments.common import build_world
from repro.fleet import FleetFullSpec, FleetStation, run_fleet_full
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.wankeeper import WanKeeperDeployment, build_wankeeper_deployment
from repro.workloads import (
    LatencyRecorder,
    OverlapChooser,
    YcsbSpec,
    load_records,
    ycsb_client,
)
from repro.zk import ConnectionLossError, ZkError

from instrument import SLICES, Instrument, Region

__all__ = ["SIZES", "WORKLOADS", "Outcome", "Workload"]

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
RECORDS = 300
#: Simulated ms the deployment is left alone before replicas are compared.
QUIESCE_MS = 30_000.0


@dataclass
class Outcome:
    """What one pass over one workload produced."""

    #: Simulated results: latencies, throughput, op counts. Deterministic.
    sim: Dict[str, Any]
    #: Public counters over the measured phase (events, messages, commits,
    #: token moves, retries ...). Deterministic.
    counters: Dict[str, float]
    #: Output checks that failed, by name; empty when the run is correct.
    violations: List[str]
    #: The measured phase as the instrument saw it.
    region: Region
    #: Ops completed in the measured phase: what ``counters`` and
    #: ``region`` are per.
    ops: int
    #: Rate sweep (``fleet_open`` only): one entry per step, plus the
    #: highest offered rate that met the limits.
    steps: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One row of the table at the end of this file; BENCHMARK.json says
    why each exists."""

    name: str
    substrate: str  # backend that ``repro.substrate`` frames fold into
    driver: Callable[["Workload", int, Dict[str, Any], Instrument], Outcome]
    params: Dict[str, Any]

    def run(self, seed: int, size: Dict[str, Any], inst: Instrument) -> Outcome:
        return self.driver(self, seed, size, inst)


# -- shared helpers -----------------------------------------------------------


def _drive(env: Environment, procs, step_ms: float = 250.0) -> None:
    """Advance the clock in horizon steps (the kernel's fast path) until
    every process in ``procs`` has finished; re-raise a failure."""
    while not all(proc.triggered for proc in procs):
        env.run(until=env.now + step_ms)
    for proc in procs:
        if not proc.ok:
            raise proc.exception


class _CountingRecorder(LatencyRecorder):
    """A recorder that tells the instrument about every completed op, so a
    timed pass can cut the phase into slices of equal op count without
    stopping the simulation."""

    def __init__(self, name: str, on_op: Callable[[], None]) -> None:
        super().__init__(name)
        self._on_op = on_op

    def record(self, kind: str, start: float, latency: float, ok: bool = True) -> None:
        super().record(kind, start, latency, ok)
        self._on_op()


def _latency_summary(recorder: LatencyRecorder) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "ops": len(recorder.samples),
        "failed": recorder.errors,
        "span_ms": recorder.span_ms(),
        "throughput_ops_s": recorder.throughput_ops_per_sec(),
    }
    for kind in ("read", "write"):
        count = recorder.count(kind)
        out[f"{kind}_samples"] = count
        out[f"{kind}_mean_ms"] = recorder.mean_latency(kind) if count else None
        out[f"{kind}_p50_ms"] = recorder.percentile_latency(50, kind) if count else None
        # A p99 needs ten samples beyond it.
        out[f"{kind}_p99_ms"] = (
            recorder.percentile_latency(99, kind) if count >= 1000 else None
        )
    return out


def _counters(net: Network, servers, clients=()) -> Dict[str, float]:
    """Cumulative public counters of a run, keyed by layer."""
    out: Dict[str, float] = {
        # As repro.bench and the golden digests read the event count.
        "sim.events": net.env._seq,
        "net.msgs": net.messages_sent,
        "net.bytes": net.bytes_sent,
        "net.dropped": net.messages_dropped,
        "net.duplicated": net.messages_duplicated,
        "zk.client_retries": sum(client.retries_performed for client in clients),
    }
    out.update(dict.fromkeys(
        (
            "zab.commits", "zab.elections", "zab.retransmits",
            "wpaxos.steals_started", "wpaxos.steals_won", "wpaxos.retransmits",
            "zk.applies", "zk.cache_replies",
            "wankeeper.local_commits", "wankeeper.remote_commits",
            "wankeeper.grants", "wankeeper.recalls",
        ),
        0,
    ))
    for server in servers:
        peer = server.peer
        if server.substrate == "wpaxos":
            out["wpaxos.steals_started"] += peer.steals_started
            out["wpaxos.steals_won"] += peer.steals_won
            out["wpaxos.retransmits"] += peer.proposals_retransmitted
        else:
            out["zab.commits"] += peer.commits_delivered
            out["zab.elections"] += peer.elections_completed
            out["zab.retransmits"] += peer.proposals_retransmitted
        out["zk.applies"] += server.commits_applied
        out["zk.cache_replies"] += server.replies_from_cache
        # Plain ZkServers have no token layer.
        out["wankeeper.local_commits"] += getattr(server, "local_commits", 0)
        out["wankeeper.remote_commits"] += getattr(server, "remote_commits", 0)
        out["wankeeper.grants"] += getattr(server, "tokens_granted", 0)
        out["wankeeper.recalls"] += getattr(server, "tokens_recalled", 0)
    return out


def _measure(inst: Instrument, net: Network, servers, clients, ops: int,
             phase: Callable[[], None]) -> Tuple[Region, Dict[str, float]]:
    """Run ``phase`` as the sliced measured region of a closed or paced
    workload; returns the region and the counters' change across it."""
    tap = inst.message_counter()
    if tap is not None:
        net.tap(tap)
    before = _counters(net, servers, clients)
    inst.begin(sliced_ops=ops)
    phase()
    region = inst.end()
    counters = _delta(_counters(net, servers, clients), before)
    inst.measured_done()
    if tap is not None:
        counters.update(tap.counters())
    return region, counters


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _fingerprints(deployment) -> Dict[str, int]:
    if isinstance(deployment, WanKeeperDeployment):
        return deployment.content_fingerprints()
    return deployment.tree_fingerprints()


def _check_converged(deployment, violations: List[str]) -> None:
    if len(set(_fingerprints(deployment).values())) != 1:
        violations.append("replicas_converge")


def _check_fault_free(sim: Dict[str, Any], counters: Dict[str, float],
                      violations: List[str]) -> None:
    if sim["failed"]:
        violations.append("failed_op_share_is_zero")
    if counters["net.dropped"]:
        violations.append("net_dropped_share_is_zero")


# -- closed loop --------------------------------------------------------------


def _run_closed(workload: Workload, seed: int, size: Dict[str, Any],
                inst: Instrument) -> Outcome:
    params = workload.params
    world = build_world(params["system"], seed=seed)
    env, net, deployment = world.env, world.net, world.deployment
    spec = YcsbSpec(record_count=RECORDS, write_fraction=params["write_fraction"])
    clients = [
        (index, world.client(site), seeded_rng(seed, f"ledger-client-{index}.{k}"))
        for index, site in enumerate(SITES)
        for k in range(2)
    ]

    def boot():
        for _i, client, _rng in clients:
            yield client.connect()
        yield env.process(load_records(clients[0][1], spec))
        yield env.timeout(500.0)  # let replication quiesce

    def chooser(site_index: int):
        overlap = params["overlap"]
        if overlap is None:
            return None  # the spec's Zipfian default
        return OverlapChooser(RECORDS, overlap, site_index, len(SITES))

    def phase(ops: int, recorder: LatencyRecorder) -> None:
        _drive(env, [
            env.process(ycsb_client(
                env, client, spec, rng, recorder,
                chooser=chooser(site_index),
                operation_count=ops // len(clients),
            ))
            for site_index, client, rng in clients
        ])

    _drive(env, [env.process(boot())], step_ms=1000.0)
    phase(size["warmup_ops"], LatencyRecorder("warm-up"))
    inst.setup_done()

    ops = size["ops"] - size["ops"] % len(clients)
    recorder = _CountingRecorder("measured", inst.on_op)
    region, counters = _measure(
        inst, net, deployment.servers, [client for _i, client, _rng in clients],
        ops, lambda: phase(ops, recorder),
    )
    sim = _latency_summary(recorder)
    violations: List[str] = []
    env.run(until=env.now + QUIESCE_MS)
    _check_converged(deployment, violations)
    _check_fault_free(sim, counters, violations)
    return Outcome(sim, counters, violations, region, ops)


# -- paced, with faults -------------------------------------------------------

PACE_MS = 250.0
CLIENTS_PER_SITE = 8
CRASH_FOR_MS = 4000.0
CRASH_EVERY_MS = 10_000.0
FIRST_CRASH_MS = 5000.0
AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)


def _run_faulty(workload: Workload, seed: int, size: Dict[str, Any],
                inst: Instrument) -> Outcome:
    env = Environment()
    topology = wan_topology(jitter_fraction=0.1)
    net = Network(env, topology, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(
        env, net, topology, l2_site=VIRGINIA, processing_delay_ms=0.02
    )
    deployment.start()
    deployment.stabilize()
    keys = [f"/ledger/k{index:04d}" for index in range(RECORDS)]
    clients = [
        (
            site,
            deployment.client(site, session_timeout_ms=30_000.0,
                              request_timeout_ms=1000.0),
            seeded_rng(seed, f"ledger-client-{site}.{k}"),
            # Private partitions: a site's writes commit under its own
            # tokens, so the WAN faults hit replication, not admission.
            OverlapChooser(RECORDS, 0.0, site_index, len(SITES)),
        )
        for site_index, site in enumerate(SITES)
        for k in range(CLIENTS_PER_SITE)
    ]

    def boot():
        for _site, client, _rng, _chooser in clients:
            yield client.connect()
        loader = clients[0][1]
        yield loader.create("/ledger", b"")
        for key in keys:
            yield loader.create(key, b"")
        yield env.timeout(1000.0)

    def warm(client, rng, chooser, ops: int):
        # Fault-free closed loop: tokens migrate to the sites that write.
        for _ in range(ops):
            key = keys[chooser.choose(rng)]
            if rng.random() < 0.5:
                yield client.set_data(key, b"0")
            else:
                yield client.get_data(key)

    _drive(env, [env.process(boot())], step_ms=1000.0)
    _drive(env, [
        env.process(warm(client, rng, chooser, size["warmup_ops"] // len(clients)))
        for _site, client, rng, chooser in clients
    ])
    env.run(until=env.now + 1000.0)
    inst.setup_done()

    # Faults on from here: the transport's no-fault fast path stays off
    # for the whole measured phase.
    for site_a, site_b in itertools.combinations(SITES, 2):
        net.degrade(site_a, site_b, AMBIENT)
    recorder = _CountingRecorder("measured", inst.on_op)
    history = HistoryRecorder()
    next_value = itertools.count(1)
    t0 = env.now
    per_client = size["ops_per_client"]

    def actor(index: int, site: str, client, rng, chooser):
        offset = (index % CLIENTS_PER_SITE) * PACE_MS / CLIENTS_PER_SITE
        for k in range(per_client):
            due = t0 + offset + k * PACE_MS
            if env.now < due:
                yield env.timeout(due - env.now)
            key = keys[chooser.choose(rng)]
            is_write = rng.random() < 0.5
            ok = True
            try:
                if is_write:
                    value = next(next_value)
                    yield client.set_data_retrying(
                        key, str(value).encode(), max_retries=10
                    )
                    history.record(site, "write", key, value, due, env.now)
                else:
                    yield client.get_data_retrying(key, max_retries=10)
            except (ConnectionLossError, ZkError):
                ok = False
            recorder.record("write" if is_write else "read", due, env.now - due, ok)

    crashes: List[Tuple[str, float]] = []

    def nemesis():
        # Each site's current leader in turn, at fixed instants.
        yield env.timeout(FIRST_CRASH_MS)
        for _cycle in range(size["crash_cycles"]):
            for site in SITES:
                leader = deployment.site_leader(site)
                crashes.append((site, env.now))
                leader.crash()
                yield env.timeout(CRASH_FOR_MS)
                leader.restart()
                yield env.timeout(CRASH_EVERY_MS - CRASH_FOR_MS)

    ops = per_client * len(clients)
    region, counters = _measure(
        inst, net, deployment.servers,
        [client for _site, client, _rng, _chooser in clients], ops,
        lambda: _drive(env, [
            env.process(actor(index, site, client, rng, chooser))
            for index, (site, client, rng, chooser) in enumerate(clients)
        ] + [env.process(nemesis())], step_ms=500.0),
    )
    sim = _latency_summary(recorder)
    sim["crashes"] = len(crashes)
    # Worst case over the crashes: first write due at the site after the
    # crash to complete, measured from the crash instant.
    sim["failover_ms"] = max(
        min(
            op.completed
            for op in history.operations
            if op.client == site and op.invoked >= at
        ) - at
        for site, at in crashes
    )

    violations: List[str] = []
    net.restore_all()
    env.run(until=env.now + QUIESCE_MS)
    _check_converged(deployment, violations)
    if sim["failed"]:
        violations.append("failed_op_share_is_zero")
    # Writes are linearizable per key (reads are local, so only the final
    # state is checked against them, as cell_soak does).
    tree = deployment.servers[0].tree
    for key in sorted({op.key for op in history.operations}):
        data, _stat = tree.get_data(key)
        history.record(
            "final-check", "read", key, int(data) if data else None,
            env.now, env.now + 1.0,
        )
    if check_linearizable_per_key(history.operations, initial=None):
        violations.append("linearizable_per_key")
    sim["max_apply_count"] = max(
        max(server.apply_counts.values(), default=0)
        for server in deployment.servers
    )
    if sim["max_apply_count"] != 1:
        violations.append("max_apply_count_is_one")
    return Outcome(sim, counters, violations, region, ops)


# -- open loop: fleet cells ---------------------------------------------------

FLEET_WRITE_P99_LIMIT_MS = 500.0
FLEET_BACKLOG_LIMIT = 0.01  # in flight at the horizon, as a share of issued
RATE_STEPS = (1, 2, 4, 6)
RATE_STEP_MS = 15_000.0


@contextlib.contextmanager
def _recording_instances(*classes: type, on_create=None) -> Iterator[Dict[type, list]]:
    """Record every instance of ``classes`` constructed inside the block.

    ``run_fleet_full`` is one opaque call that builds its own network and
    deployment; this is how the harness taps that network and, after the
    call, fingerprints the replicas and reads the public counters —
    without reaching for anything but the public classes.
    """
    seen: Dict[type, list] = {cls: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def recording(cls):
        original = originals[cls]

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            seen[cls].append(self)
            if on_create is not None:
                on_create(self)

        return __init__

    for cls in classes:
        cls.__init__ = recording(cls)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


def _fleet_cell(spec: FleetFullSpec, inst: Instrument, mark_every_ms: float = 0.0
                ) -> Tuple[Dict[str, Any], Dict[str, float], List[str], Region]:
    """One ``run_fleet_full`` call as an instrumented region.

    With ``mark_every_ms`` the cell's own clock calls the instrument back
    on that grid with the ops completed so far, which is how a timed pass
    cuts an opaque call into slices. The callbacks touch nothing the cell
    can see: its payload is the same with and without them.
    """
    tap = inst.message_counter()

    def on_create(instance) -> None:
        if not isinstance(instance, Network):
            return
        if tap is not None:
            instance.tap(tap)
        if mark_every_ms:
            env, stations = instance.env, seen[FleetStation]

            def mark(_arg) -> None:
                done = sum(st.ops_completed + st.ops_failed for st in stations)
                if inst.mark(done):
                    env.call_in(mark_every_ms, mark)

            env.call_in(mark_every_ms, mark)

    violations: List[str] = []
    with _recording_instances(
        Network, WanKeeperDeployment, FleetStation, on_create=on_create
    ) as seen:
        inst.begin()
        payload = run_fleet_full(spec)
        # Stations, network and deployment are still referenced here, so a
        # memory pass sees the state the cell held at its horizon.
        region = inst.end()
    (net,), (deployment,) = seen[Network], seen[WanKeeperDeployment]
    counters = _counters(net, deployment.servers)
    if tap is not None:
        counters.update(tap.counters())
    # The cell stops at its horizon with work possibly still in flight;
    # its clock is ours to run on until the replicas have settled.
    net.env.run(until=net.env.now + QUIESCE_MS)
    _check_converged(deployment, violations)
    if payload["issued_ops"] != payload["offered_ops"] - payload["not_connected_drops"]:
        violations.append("issued_equals_offered_minus_drops")
    if payload["sessions"] != spec.total_sessions:
        violations.append("all_sessions_connected")
    return payload, counters, violations, region


#: ``run_fleet_full`` takes one seed for both the generated planet and the
#: arrival streams. The planet is part of the workload, as the 3-region
#: RTT matrix is for the other workloads: host cost past the knee swings
#: 2x between planets (hub placement decides how deep its queue gets), so
#: it is pinned, and ``--seed`` re-draws the arrivals instead, by scaling
#: the base rate within +-0.2 %: any difference in the Poisson mean
#: decorrelates a site's draws within its first simulated second or two.
PLANET_SEED = 42
BASE_SITE_OPS_PER_S = 40.0
RATE_JITTER = 0.002


def _fleet_spec(seed: int, size: Dict[str, Any], **overrides) -> FleetFullSpec:
    jitter = seeded_rng(seed, "ledger-fleet-rate").uniform(-RATE_JITTER, RATE_JITTER)
    return FleetFullSpec(
        seed=PLANET_SEED,
        n_sites=size["n_sites"],
        sessions_per_site=size["sessions_per_site"],
        site_ops_per_sec=BASE_SITE_OPS_PER_S * (1.0 + jitter),
        system="wankeeper",
        substrate="zab",
        write_fraction=0.2,
        **overrides,
    )


def _run_fleet(workload: Workload, seed: int, size: Dict[str, Any],
               inst: Instrument) -> Outcome:
    multiplier = workload.params["load_multiplier"]
    full_spec = _fleet_spec(
        seed, size, load_multiplier=multiplier, duration_ms=size["duration_ms"]
    )
    # Set-up is a cell that drives one tick: build, stabilise, bootstrap
    # the key tree and connect every session, then stop.
    setup_spec = _fleet_spec(
        seed, size, load_multiplier=multiplier, duration_ms=full_spec.tick_ms
    )
    base_payload, base_counters, violations, base_region = _fleet_cell(setup_spec, inst)
    inst.setup_done()
    payload, counters, more, region = _fleet_cell(
        full_spec, inst, mark_every_ms=full_spec.duration_ms / SLICES
    )
    inst.measured_done()
    violations += more

    # The measured phase is the full cell minus the set-up cell. (A timed
    # pass needs no subtraction for its rate: its slices start with the
    # first completed op.)
    counters = _delta(counters, base_counters)
    region.cpu_s -= base_region.cpu_s
    if region.profile is not None:
        region.profile = region.profile - base_region.profile

    sim = {
        "ops": payload["completed_ops"] + payload["failed_ops"],
        "failed": payload["failed_ops"],
        "offered_ops": payload["offered_ops"],
        "issued_ops": payload["issued_ops"],
        "issue_drops": payload["not_connected_drops"],
        "in_flight_at_horizon": payload["in_flight_at_horizon"],
        "sessions": payload["sessions"],
        "throughput_ops_s": payload["throughput_ops_per_sec"],
        "offered_ops_s": payload["offered_ops_per_sec"],
        "read_samples": payload["reads_served"] - base_payload["reads_served"],
        "write_samples": payload["writes_accepted"] - base_payload["writes_accepted"],
        "write_mean_ms": payload["write_mean_ms"],
    }
    # Latencies come from the cell's reservoir sketch (1 024 per site).
    for key in ("read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms"):
        sim[key] = payload[key]
    _check_fault_free(sim, counters, violations)

    steps: Dict[str, Any] = {}
    if workload.params.get("rate_steps") and inst.mode == "memory":
        # The rate sweep runs in the memory pass's process, after tracing
        # has stopped: its numbers are simulated, so where it runs cannot
        # move them, and no timed round pays for it.
        best = 0.0
        for step in RATE_STEPS:
            step_payload = run_fleet_full(_fleet_spec(
                seed, size, load_multiplier=step,
                duration_ms=size["rate_step_ms"],
            ))
            issued = step_payload["issued_ops"]
            passes = (
                step_payload["write_p99_ms"] <= FLEET_WRITE_P99_LIMIT_MS
                and step_payload["in_flight_at_horizon"] <= FLEET_BACKLOG_LIMIT * issued
                and not step_payload["failed_ops"]
            )
            if passes:
                best = max(best, step_payload["offered_ops_per_sec"])
            steps[f"x{step}"] = {
                "write_p99_ms": step_payload["write_p99_ms"],
                "throughput_ops_s": step_payload["throughput_ops_per_sec"],
                "offered_ops_s": step_payload["offered_ops_per_sec"],
                "passes": passes,
            }
        steps["max_rate_ok_ops_s"] = best
    ops = sim["ops"] - base_payload["completed_ops"] - base_payload["failed_ops"]
    return Outcome(sim, counters, violations, region, ops, steps)


# -- the table ----------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("wk_local", "zab", _run_closed,
                 {"system": "wk", "write_fraction": 0.5, "overlap": 0.0}),
        Workload("wk_contended", "zab", _run_closed,
                 {"system": "wk", "write_fraction": 0.5, "overlap": 1.0}),
        # zk x zab with one voter per region; the spec's Zipfian chooser.
        Workload("zk_readheavy", "zab", _run_closed,
                 {"system": "zk", "write_fraction": 0.05, "overlap": None}),
        # zk x wpaxos, 3 voters in each of the 3 regions.
        Workload("wpaxos_mixed", "wpaxos", _run_closed,
                 {"system": "wpaxos", "write_fraction": 0.5, "overlap": 0.2}),
        # 4x the base rate is the highest sweep step inside the latency limit.
        Workload("fleet_open", "zab", _run_fleet,
                 {"load_multiplier": 4.0, "rate_steps": True}),
        # Past the knee (6x already fails). 8x would be deeper, but there a
        # 1 % change in offered rate moves host cost by 25 %; 7x is the
        # deepest overload whose cost repeats across arrival draws.
        Workload("fleet_overload", "zab", _run_fleet,
                 {"load_multiplier": 7.0}),
        Workload("wk_faulty", "zab", _run_faulty, {}),
    )
}

#: Frozen sizes. ``full`` is what a timed round runs; ``trace`` is what
#: the profile and memory passes run (they cost 3-4x per op); ``tiny`` is
#: for the harness's own tests. Simulated metrics are only comparable at
#: equal size, so changing a number here starts a new baseline.
_CLOSED = {"wk_local": 12_000, "wk_contended": 9_600,
           "zk_readheavy": 60_000, "wpaxos_mixed": 15_000}
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    name: {
        "full": {"ops": ops, "warmup_ops": 2000},
        "trace": {"ops": ops // 3, "warmup_ops": 2000},
        "tiny": {"ops": 600, "warmup_ops": 120},
    }
    for name, ops in _CLOSED.items()
}
SIZES["wk_faulty"] = {
    "full": {"ops_per_client": 380, "crash_cycles": 3, "warmup_ops": 2000},
    "trace": {"ops_per_client": 140, "crash_cycles": 1, "warmup_ops": 2000},
    # One crash cycle needs 35 simulated s of pacing: no smaller run has
    # a write due after every crash.
    "tiny": {"ops_per_client": 140, "crash_cycles": 1, "warmup_ops": 240},
}
_FLEET = {"n_sites": 8, "sessions_per_site": 1250, "rate_step_ms": RATE_STEP_MS}
_FLEET_TINY = {"n_sites": 3, "sessions_per_site": 40, "rate_step_ms": 1000.0}
SIZES["fleet_open"] = {
    "full": {**_FLEET, "duration_ms": 20_000.0},
    "trace": {**_FLEET, "duration_ms": 6000.0},
    "tiny": {**_FLEET_TINY, "duration_ms": 1000.0},
}
SIZES["fleet_overload"] = {
    "full": {**_FLEET, "duration_ms": 5000.0},
    "trace": {**_FLEET, "duration_ms": 2500.0},
    "tiny": {**_FLEET_TINY, "duration_ms": 500.0},
}
