"""Kernel/transport/end-to-end throughput benchmarks: ``repro bench``.

Three workloads, each reporting wall-clock throughput of the simulation
substrate itself (not simulated-time throughput, which is what the figure
experiments measure):

* **kernel** — a ring of processes exchanging items through
  :class:`~repro.sim.store.Store` with interleaved timeouts; measures raw
  scheduler events/sec with no network or protocol stack involved.
* **burst** — zero-delay ``call_soon`` cascades; measures the same-instant
  batched run-to-quiescence fast path in isolation.
* **transport** — a producer/consumer pair streaming messages across one
  WAN link; measures messages/sec through :class:`~repro.net.Network`.
* **ycsb** — a full seeded YCSB run against the replicated ZooKeeper world
  (three sites, one client each); measures end-to-end events/sec and
  ops/wall-sec through the entire stack.

A second, protocol-layer group behind ``--server`` benches the replicated
state machine with no kernel or network in the loop:

* **datatree** — seeded apply/read mix against a bare DataTree (wide
  parent, get_data/exists/get_children/set_data);
* **watches** — watch register/fire/miss/drop-session churn through
  WatchManager;
* **tokens** — WanKeeper token grant/recall/migration loop through
  SiteTokenState/HubTokenState and token_key(s).

``repro bench`` writes ``BENCH_kernel.json`` in the current directory (the
repo root, when run from there); ``--server`` writes ``BENCH_server.json``.
An existing file's ``before`` section is preserved so the committed
artifact keeps the pre-optimization numbers next to the current ones, and
every write appends a ``{commit, label, events_per_sec}`` point to the
file's ``history`` list (``--label`` names the point) so BENCH files keep
a trajectory instead of losing prior numbers. ``--check`` compares a fresh
run against the file's ``after`` section — hardware-normalized via a
calibration loop — and fails when a bench's rate regresses by more than
its tolerance (20% for ycsb, 30% elsewhere); CI runs it with ``--quick``.
The rate is events/sec for the kernel/burst/transport microloops, whose
event count is fixed by their size, and ops/sec for the full-stack ycsb
bench: events/sec only compares runs at equal events per op, and a change
that removes events from the request path makes it *fall*.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "BENCH_FILE",
    "CHECK_TOLERANCE",
    "EXPERIMENTS_BENCH_FILE",
    "SERVER_BENCH_FILE",
    "FLEET_BENCH_FILE",
    "bench_burst",
    "bench_datatree",
    "bench_experiments",
    "bench_fleet",
    "bench_fleet_full",
    "bench_kernel",
    "bench_tokens",
    "bench_transport",
    "bench_watches",
    "bench_ycsb",
    "calibrate",
    "main",
    "run_server_suite",
    "run_suite",
]

BENCH_FILE = "BENCH_kernel.json"
EXPERIMENTS_BENCH_FILE = "BENCH_experiments.json"
SERVER_BENCH_FILE = "BENCH_server.json"
FLEET_BENCH_FILE = "BENCH_fleet.json"

# --check fails when a normalized rate falls more than this fraction
# below the committed baseline (per-bench overrides in _TOLERANCES).
CHECK_TOLERANCE = 0.30

#: Per-bench --check tolerances. YCSB is the end-to-end headline number
#: and the quietest of the three, so it gets the tighter CI gate.
_TOLERANCES = {"ycsb": 0.20}

#: Benches compared on a rate other than the suite's own: the full-stack
#: ycsb bench does a fixed number of ops in a number of kernel events
#: that optimizations change, so only its domain rate is comparable.
_RATE_METRICS = {"ycsb": "ops_per_wall_sec"}

#: BENCH files keep at most this many trajectory points.
HISTORY_LIMIT = 20

# --experiments --check fails unless cold parallel beats serial by at
# least this factor (only enforced on >= 2 cores).
EXPERIMENTS_SPEEDUP_FLOOR = 1.0

# (full size, --quick size) for each workload.
_KERNEL_SIZES = {"procs": (50, 20), "rounds": (2000, 400)}
_BURST_SIZES = {"chains": (200, 50), "hops": (2000, 400)}
_TRANSPORT_SIZES = {"messages": (60000, 10000)}
_YCSB_SIZES = {"operations": (1500, 300), "records": (200, 100)}
_DATATREE_SIZES = {"children": (400, 80), "ops": (80000, 8000)}
_WATCH_SIZES = {"paths": (150, 40), "sessions": (100, 25), "ops": (60000, 6000)}
_TOKEN_SIZES = {"keys": (240, 48), "ops": (50000, 5000)}


def _size(table: Dict[str, Any], key: str, quick: bool) -> int:
    full, small = table[key]
    return small if quick else full


# -- workloads ---------------------------------------------------------------


def bench_kernel(quick: bool = False) -> Dict[str, Any]:
    """Scheduler-only ring benchmark: Store ping-pong plus timeouts."""
    from repro.sim import Environment, Store

    n_procs = _size(_KERNEL_SIZES, "procs", quick)
    n_rounds = _size(_KERNEL_SIZES, "rounds", quick)
    env = Environment()
    stores = [Store(env) for _ in range(n_procs)]

    def actor(env, i):
        nxt = stores[(i + 1) % n_procs]
        mine = stores[i]
        for r in range(n_rounds):
            yield env.timeout(0.1)
            nxt.put(r)
            yield mine.get()

    for i in range(n_procs):
        env.process(actor(env, i), name=f"actor{i}")
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    return {
        "events": env._seq,
        "wall_s": wall,
        "events_per_sec": env._seq / wall,
    }


def bench_burst(quick: bool = False) -> Dict[str, Any]:
    """Same-instant cascade benchmark: zero-delay callback chains.

    Every event after the opening timeout is scheduled at the *current*
    instant (``call_soon`` chains — the shape transport delivery and Zab
    commit fan-out generate), so the run measures the batched
    run-to-quiescence fast path with no heap traffic at all.
    """
    from repro.sim import Environment

    n_chains = _size(_BURST_SIZES, "chains", quick)
    n_hops = _size(_BURST_SIZES, "hops", quick)
    env = Environment()
    done = [0]

    def hop(remaining):
        if remaining:
            env.call_soon(hop, remaining - 1)
        else:
            done[0] += 1

    def kick(_arg):
        for _ in range(n_chains):
            env.call_soon(hop, n_hops)

    env.call_in(1.0, kick)
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    assert done[0] == n_chains
    return {
        "events": env._seq,
        "wall_s": wall,
        "events_per_sec": env._seq / wall,
    }


def bench_transport(quick: bool = False) -> Dict[str, Any]:
    """One-link streaming benchmark through the Network layer."""
    from repro.net import Network, wan_topology
    from repro.net.topology import NodeAddress
    from repro.sim import Environment

    n_messages = _size(_TRANSPORT_SIZES, "messages", quick)
    env = Environment()
    topo = wan_topology(jitter_fraction=0.0)
    net = Network(env, topo)
    src = NodeAddress("virginia", "src")
    dst = NodeAddress("california", "dst")
    net.register(src)
    inbox = net.register(dst)
    received = [0]

    def producer(env):
        for i in range(n_messages):
            net.send(src, dst, i)
            if i % 100 == 99:
                yield env.timeout(1.0)

    def consumer(env):
        while received[0] < n_messages:
            yield inbox.get()
            received[0] += 1

    env.process(producer(env), name="producer")
    env.process(consumer(env), name="consumer")
    started = time.perf_counter()
    env.run()
    wall = time.perf_counter() - started
    assert received[0] == n_messages
    return {
        "messages": n_messages,
        "wall_s": wall,
        "msgs_per_sec": n_messages / wall,
        "events": env._seq,
        "events_per_sec": env._seq / wall,
    }


def bench_ycsb(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    """End-to-end seeded YCSB run against the replicated ZooKeeper world."""
    from repro.experiments.common import build_world
    from repro.sim import seeded_rng
    from repro.workloads.driver import ClientPlan, YcsbSpec, run_ycsb
    from repro.workloads.stats import LatencyRecorder

    operations = _size(_YCSB_SIZES, "operations", quick)
    records = _size(_YCSB_SIZES, "records", quick)
    started = time.perf_counter()
    world = build_world("zk", seed=seed)
    spec = YcsbSpec(
        record_count=records, operation_count=operations, write_fraction=0.5
    )
    plans = []
    for i, site in enumerate(("virginia", "california", "frankfurt")):
        plans.append(
            ClientPlan(
                world.client(site),
                seeded_rng(seed, f"client{i}"),
                LatencyRecorder(site),
            )
        )
    run_ycsb(world.env, plans, spec)
    wall = time.perf_counter() - started
    ops = sum(plan.recorder.count() for plan in plans)
    return {
        "ops": ops,
        "wall_s": wall,
        "ops_per_wall_sec": ops / wall,
        "events": world.env._seq,
        "events_per_sec": world.env._seq / wall,
        "messages": world.net.messages_sent,
    }


# -- server-layer (protocol/state-machine) microbenchmarks --------------------


def bench_datatree(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    """Seeded apply/read mix against a bare DataTree (no kernel, no net).

    One wide parent with hundreds of children — the shape that makes
    get_children and per-read Stat allocation expensive — driven with a
    precomputed 10% set_data / 90% read schedule so the timed loop does
    nothing but DataTree work.
    """
    from repro.sim import seeded_rng
    from repro.zab.zxid import Zxid
    from repro.zk.data_tree import DataTree
    from repro.zk.ops import CreateOp, SetDataOp

    n_children = _size(_DATATREE_SIZES, "children", quick)
    n_ops = _size(_DATATREE_SIZES, "ops", quick)
    rng = seeded_rng(seed, "bench-datatree")
    tree = DataTree()
    counter = [0]

    def next_zxid() -> Zxid:
        counter[0] += 1
        return Zxid(1, counter[0])

    tree.apply(CreateOp("/bench"), next_zxid(), "bench-session")
    paths = [f"/bench/item{i:04d}" for i in range(n_children)]
    for path in paths:
        tree.apply(CreateOp(path, b"v0"), next_zxid(), "bench-session")

    schedule = []
    for index in range(n_ops):
        roll = rng.random()
        path = paths[rng.randrange(n_children)]
        if roll < 0.10:
            schedule.append(("set", SetDataOp(path, b"v%d" % index)))
        elif roll < 0.45:
            schedule.append(("get", path))
        elif roll < 0.70:
            schedule.append(("exists", path))
        else:
            schedule.append(("children", "/bench"))

    started = time.perf_counter()
    for kind, arg in schedule:
        if kind == "get":
            tree.get_data(arg)
        elif kind == "exists":
            tree.exists(arg)
        elif kind == "children":
            tree.get_children(arg)
        else:
            tree.apply(arg, next_zxid(), "bench-session")
    wall = time.perf_counter() - started
    return {"ops": n_ops, "wall_s": wall, "ops_per_sec": n_ops / wall}


def bench_watches(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    """Watch register/fire/miss/drop churn through WatchManager.

    The mix includes fires on never-watched paths (the common case on a
    busy server: most committed writes touch paths nobody watches) and
    periodic whole-session drops.
    """
    from repro.sim import seeded_rng
    from repro.zk.records import WatchEvent, WatchType
    from repro.zk.watches import WatchManager

    n_paths = _size(_WATCH_SIZES, "paths", quick)
    n_sessions = _size(_WATCH_SIZES, "sessions", quick)
    n_ops = _size(_WATCH_SIZES, "ops", quick)
    rng = seeded_rng(seed, "bench-watches")
    paths = [f"/w/p{i:03d}" for i in range(n_paths)]
    cold = [f"/cold/p{i:03d}" for i in range(n_paths)]
    sessions = [f"sess-{i:03d}" for i in range(n_sessions)]
    manager = WatchManager()

    schedule = []
    for _ in range(n_ops):
        roll = rng.random()
        path = paths[rng.randrange(n_paths)]
        session = sessions[rng.randrange(n_sessions)]
        if roll < 0.25:
            schedule.append(("data", path, session))
        elif roll < 0.40:
            schedule.append(("child", path, session))
        elif roll < 0.70:
            schedule.append(
                ("fire", WatchEvent(WatchType.NODE_DATA_CHANGED, path), None)
            )
        elif roll < 0.97:
            miss = cold[rng.randrange(n_paths)]
            schedule.append(
                ("fire", WatchEvent(WatchType.NODE_CHILDREN_CHANGED, miss), None)
            )
        else:
            schedule.append(("drop", session, None))

    fired = 0
    started = time.perf_counter()
    for kind, arg, session in schedule:
        if kind == "fire":
            fired += len(manager.trigger(arg))
        elif kind == "data":
            manager.add_data_watch(arg, session)
        elif kind == "child":
            manager.add_child_watch(arg, session)
        else:
            manager.drop_session(arg)
    wall = time.perf_counter() - started
    return {
        "ops": n_ops,
        "fired": fired,
        "wall_s": wall,
        "ops_per_sec": n_ops / wall,
    }


def bench_tokens(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    """WanKeeper token grant/recall/migration loop, three simulated sites.

    Drives SiteTokenState/HubTokenState plus token_key/token_keys with a
    precomputed write mix (plain set_data, bulk-token sequential deletes,
    sequential creates) — every write resolves its keys, migrates tokens
    between sites through the hub when missing, and admits/retires the
    inflight count, exactly the per-commit bookkeeping the brokers do.
    """
    from repro.sim import seeded_rng
    from repro.wankeeper.tokens import (
        HubTokenState,
        SiteTokenState,
        token_key,
        token_keys,
    )
    from repro.zk.ops import CreateOp, DeleteOp, SetDataOp

    n_keys = _size(_TOKEN_SIZES, "keys", quick)
    n_ops = _size(_TOKEN_SIZES, "ops", quick)
    rng = seeded_rng(seed, "bench-tokens")
    plain = [f"/app/key{i:04d}" for i in range(n_keys)]
    queues = [f"/queue{i:02d}" for i in range(12)]
    site_names = ("virginia", "california", "frankfurt")
    sites = {name: SiteTokenState(name) for name in site_names}
    hub = HubTokenState()

    schedule = []
    for index in range(n_ops):
        roll = rng.random()
        site = site_names[rng.randrange(3)]
        if roll < 0.55:
            op = SetDataOp(plain[rng.randrange(n_keys)], b"")
        elif roll < 0.75:
            queue = queues[rng.randrange(len(queues))]
            op = DeleteOp(f"{queue}/n-{index % 1000:010d}")
        elif roll < 0.90:
            queue = queues[rng.randrange(len(queues))]
            op = CreateOp(f"{queue}/n-", sequential=True)
        else:
            schedule.append(("probe", site, plain[rng.randrange(n_keys)]))
            continue
        schedule.append(("write", site, op))

    started = time.perf_counter()
    for kind, site, arg in schedule:
        state = sites[site]
        if kind == "probe":
            hub.where(token_key(arg))
            continue
        keys = token_keys(arg)
        if not state.holds_all(keys):
            for key in sorted(keys):
                if state.holds(key):
                    continue
                owner = hub.where(key)
                if owner is not None and owner != site:
                    other = sites[owner]
                    other.start_recall(key)
                    other.release(key)
                    hub.accept_return(key)
                hub.grant(key, site)
                state.grant(key)
        state.admit(keys)
        ready = state.retire(keys)
        for key in sorted(ready):
            state.release(key)
            hub.accept_return(key)
    wall = time.perf_counter() - started
    return {"ops": n_ops, "wall_s": wall, "ops_per_sec": n_ops / wall}


# -- fleet-tier memory/throughput benchmark -----------------------------------


def bench_fleet(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    """Memory/throughput profile of the fleet suite's cells.

    Runs exactly the cells the ``fleet`` experiment suite commits (site
    sweep + offered-load sweep), measuring per cell: wall-clock seconds,
    tracemalloc traced peak (the gated number — it counts only Python
    allocations, so it is stable across machines), sessions per GB of
    traced peak, and the process ``ru_maxrss`` high-water mark
    (informational only: it never shrinks and includes the interpreter).

    The anchor cell — the largest session count — is run twice and its
    payloads compared, so the BENCH file also certifies the fleet tier's
    determinism contract. Peak-RSS numbers live *here* and never in the
    deterministic cell payloads.
    """
    import resource
    import tracemalloc

    from repro.runner.cells import CELLS
    from repro.runner.suites import build_suite

    scenarios = build_suite("fleet", quick, seed)
    cell_fn = CELLS["fleet"]
    cells: List[Dict[str, Any]] = []
    seen = set()
    anchor = None
    for scenario in scenarios:
        digest = scenario.digest()
        if digest in seen:
            continue
        seen.add(digest)
        kwargs = scenario.kwargs
        tracemalloc.start()
        started = time.perf_counter()
        payload = cell_fn(**kwargs)
        wall = time.perf_counter() - started
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_mb = traced_peak / 1e6
        record = {
            "label": scenario.label or scenario.cell,
            "n_sites": payload["n_sites"],
            "sessions": payload["sessions"],
            "load_multiplier": kwargs.get("load_multiplier", 1.0),
            "offered_ops_per_sec": payload["offered_ops_per_sec"],
            "throughput_ops_per_sec": payload["throughput_ops_per_sec"],
            "token_migrations": payload["token_migrations"],
            "write_p99_ms": payload["write_p99_ms"],
            "wall_s": round(wall, 3),
            "traced_peak_mb": round(peak_mb, 3),
            "sessions_per_gb": (
                round(payload["sessions"] / (peak_mb / 1000.0), 1)
                if peak_mb
                else None
            ),
            "rss_peak_mb": round(rss_kb / 1024.0, 1),
        }
        cells.append(record)
        if anchor is None or payload["sessions"] > anchor[1]["sessions"]:
            anchor = (scenario, payload)

    # Determinism certificate: re-run the anchor cell and compare.
    anchor_scenario, anchor_payload = anchor
    rerun = cell_fn(**anchor_scenario.kwargs)
    deterministic = json.dumps(rerun, sort_keys=True) == json.dumps(
        anchor_payload, sort_keys=True
    )
    return {
        "quick": quick,
        "seed": seed,
        "cells": cells,
        "max_sessions": max(cell["sessions"] for cell in cells),
        "max_traced_peak_mb": max(cell["traced_peak_mb"] for cell in cells),
        "anchor_label": anchor_scenario.label or anchor_scenario.cell,
        "deterministic": deterministic,
        "full_stack": bench_fleet_full(quick=quick, seed=seed),
    }


# -- full-stack fleet benchmark -----------------------------------------------


#: The sparse-arrival cell demonstrating idle-gap fast-forward: 600k
#: 0.1 ms ticks over one simulated minute with ~2 offered ops/s across
#: all eight sites, so nearly every tick is quiescent. The naive driver
#: pays one kernel wake per tick; fast-forward walks the tick grid
#: inline and only touches the kernel for real arrivals.
FLEET_FULL_SPARSE_PARAMS: Dict[str, Any] = dict(
    n_sites=8,
    sessions_per_site=64,
    duration_ms=60000.0,
    tick_ms=0.1,
    site_ops_per_sec=0.25,
    diurnal_amplitude=0.0,
)


def bench_fleet_full(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    """Full-stack fleet benchmark: the real protocol stack at 10^4 sessions.

    Three measurements:

    * **anchor** — 8 sites x 1250 *real* sessions against the
      WanKeeper/zab deployment: wall clock, tracemalloc traced peak,
      sessions per GB of traced peak, plus a re-run determinism check.
      Quick mode shortens the driven window but keeps the full session
      count, so the 10^4-session floor is certified on every CI run.
    * **load knee** — offered-load multipliers over the same shape; the
      throughput-vs-offered-load rows show where the real stack's
      completed rate falls away from the offered rate.
    * **fast-forward pair** — the sparse-arrival cell run with idle-gap
      fast-forward on and off. The payloads must be bit-identical (the
      two drivers perform the same draws in the same order) and the
      wall-clock ratio is the committed speedup number.
    """
    import resource
    import tracemalloc

    from repro.fleet import FleetFullSpec, run_fleet_full

    def run_cell(params: Dict[str, Any], trace: bool = False):
        spec = FleetFullSpec(seed=seed, **params)
        if trace:
            tracemalloc.start()
        started = time.perf_counter()
        payload = run_fleet_full(spec)
        wall = time.perf_counter() - started
        peak_mb = None
        if trace:
            _, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_mb = traced_peak / 1e6
        return payload, wall, peak_mb

    anchor_params = dict(
        n_sites=8,
        sessions_per_site=1250,
        duration_ms=6000.0 if quick else 15000.0,
    )
    anchor, anchor_wall, anchor_peak = run_cell(anchor_params, trace=True)
    rerun, _, _ = run_cell(anchor_params)
    deterministic = json.dumps(rerun, sort_keys=True) == json.dumps(
        anchor, sort_keys=True
    )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    knee = []
    for load in (0.5, 1.0, 2.0):
        payload, wall, _ = run_cell(
            dict(
                n_sites=8,
                sessions_per_site=250 if quick else 1250,
                duration_ms=5000.0 if quick else 15000.0,
                load_multiplier=load,
            )
        )
        knee.append(
            {
                "load_multiplier": load,
                "offered_ops_per_sec": payload["offered_ops_per_sec"],
                "throughput_ops_per_sec": payload["throughput_ops_per_sec"],
                "in_flight_at_horizon": payload["in_flight_at_horizon"],
                "write_p99_ms": payload["write_p99_ms"],
                "wall_s": round(wall, 3),
            }
        )

    sparse = dict(FLEET_FULL_SPARSE_PARAMS)
    ff_payload, ff_wall, _ = run_cell({**sparse, "fast_forward": True})
    naive_payload, naive_wall, _ = run_cell({**sparse, "fast_forward": False})
    return {
        "quick": quick,
        "seed": seed,
        "anchor": {
            "system": anchor["system"],
            "substrate": anchor["substrate"],
            "n_sites": anchor["n_sites"],
            "sessions": anchor["sessions"],
            "offered_ops_per_sec": anchor["offered_ops_per_sec"],
            "throughput_ops_per_sec": anchor["throughput_ops_per_sec"],
            "token_migrations": anchor["token_migrations"],
            "messages_sent": anchor["messages_sent"],
            "write_p99_ms": anchor["write_p99_ms"],
            "wall_s": round(anchor_wall, 3),
            "traced_peak_mb": round(anchor_peak, 3),
            "sessions_per_gb": (
                round(anchor["sessions"] / (anchor_peak / 1000.0), 1)
                if anchor_peak
                else None
            ),
            "rss_peak_mb": round(rss_kb / 1024.0, 1),
        },
        "deterministic": deterministic,
        "load_knee": knee,
        "fast_forward": {
            "cell": sparse,
            "ticks": int(round(sparse["duration_ms"] / sparse["tick_ms"])),
            "completed_ops": ff_payload["completed_ops"],
            "wall_s": round(ff_wall, 3),
            "naive_wall_s": round(naive_wall, 3),
            "speedup": round(naive_wall / ff_wall, 2) if ff_wall else None,
            "payloads_identical": ff_payload == naive_payload,
        },
    }


#: --fleet --check ceilings: traced peak per cell (catches per-session
#: object or per-op tuple regressions — the committed cells sit well
#: under 10 MB) and a generous absolute RSS backstop for CI memory
#: limits. The session floor certifies the acceptance criterion.
FLEET_TRACED_PEAK_CEILING_MB = 48.0
FLEET_RSS_CEILING_MB = 2048.0
FLEET_SESSION_FLOOR = {"quick": 10_000, "full": 100_000}

#: Full-stack gates. The anchor must keep >= 10^4 *real* concurrent
#: sessions at >= 8 sites within the traced-peak ceiling; sessions/GB
#: certifies the flyweight-session design (measured ~700k/GB, floored
#: far below to absorb machine variance); the wall ceiling is a
#: generous runaway guard (the committed anchor runs in a few seconds).
#: The fast-forward speedup floor is only asserted on full (non-quick)
#: runs, where the timing is long enough to be stable.
FLEET_FULL_SESSION_FLOOR = 10_000
FLEET_FULL_TRACED_PEAK_CEILING_MB = 64.0
FLEET_FULL_SESSIONS_PER_GB_FLOOR = 200_000.0
FLEET_FULL_WALL_CEILING_S = {"quick": 120.0, "full": 240.0}
FLEET_FULL_SPEEDUP_FLOOR = 2.0


def _check_fleet(results: Dict[str, Any]) -> List[str]:
    failures = []
    floor = FLEET_SESSION_FLOOR["quick" if results["quick"] else "full"]
    if results["max_sessions"] < floor:
        failures.append(
            f"max_sessions {results['max_sessions']:,} is below the "
            f"{floor:,} concurrent-session floor"
        )
    for cell in results["cells"]:
        if cell["traced_peak_mb"] > FLEET_TRACED_PEAK_CEILING_MB:
            failures.append(
                f"{cell['label']}: traced peak {cell['traced_peak_mb']:.1f} "
                f"MB exceeds the {FLEET_TRACED_PEAK_CEILING_MB:.0f} MB "
                "ceiling"
            )
        if cell["rss_peak_mb"] > FLEET_RSS_CEILING_MB:
            failures.append(
                f"{cell['label']}: rss peak {cell['rss_peak_mb']:.0f} MB "
                f"exceeds the {FLEET_RSS_CEILING_MB:.0f} MB backstop"
            )
    if not results["deterministic"]:
        failures.append(
            "anchor cell payloads differ across two runs — the fleet "
            "engine's determinism contract is broken"
        )
    failures += _check_fleet_full(results.get("full_stack"))
    return failures


def _check_fleet_full(full_stack: Optional[Dict[str, Any]]) -> List[str]:
    if not full_stack:
        return []
    failures = []
    anchor = full_stack["anchor"]
    wall_key = "quick" if full_stack["quick"] else "full"
    if anchor["n_sites"] < 8:
        failures.append(
            f"full-stack anchor has {anchor['n_sites']} sites (< 8)"
        )
    if anchor["sessions"] < FLEET_FULL_SESSION_FLOOR:
        failures.append(
            f"full-stack anchor sessions {anchor['sessions']:,} below the "
            f"{FLEET_FULL_SESSION_FLOOR:,} real-session floor"
        )
    if anchor["traced_peak_mb"] > FLEET_FULL_TRACED_PEAK_CEILING_MB:
        failures.append(
            f"full-stack anchor traced peak {anchor['traced_peak_mb']:.1f} "
            f"MB exceeds the {FLEET_FULL_TRACED_PEAK_CEILING_MB:.0f} MB "
            "ceiling"
        )
    sessions_per_gb = anchor["sessions_per_gb"] or 0.0
    if sessions_per_gb < FLEET_FULL_SESSIONS_PER_GB_FLOOR:
        failures.append(
            f"full-stack anchor {sessions_per_gb:,.0f} sessions/GB is "
            f"below the {FLEET_FULL_SESSIONS_PER_GB_FLOOR:,.0f} floor"
        )
    wall_ceiling = FLEET_FULL_WALL_CEILING_S[wall_key]
    if anchor["wall_s"] > wall_ceiling:
        failures.append(
            f"full-stack anchor wall {anchor['wall_s']:.1f}s exceeds the "
            f"{wall_ceiling:.0f}s ceiling"
        )
    if not full_stack["deterministic"]:
        failures.append(
            "full-stack anchor payloads differ across two runs — the "
            "full-stack determinism contract is broken"
        )
    ff = full_stack["fast_forward"]
    if not ff["payloads_identical"]:
        failures.append(
            "fast-forward and naive drivers produced different payloads "
            "on the sparse cell — the two modes' schedules diverged"
        )
    if not full_stack["quick"] and (ff["speedup"] or 0.0) < FLEET_FULL_SPEEDUP_FLOOR:
        failures.append(
            f"fast-forward speedup {ff['speedup']}x is below the "
            f"{FLEET_FULL_SPEEDUP_FLOOR:.1f}x floor on the sparse cell"
        )
    return failures


def _format_fleet(results: Dict[str, Any]) -> str:
    from repro.experiments.common import format_table

    rows = [
        [
            cell["label"],
            f"{cell['sessions']:,}",
            f"{cell['throughput_ops_per_sec']:,.0f}",
            cell["token_migrations"],
            f"{cell['wall_s']:.1f}",
            f"{cell['traced_peak_mb']:.1f}",
            f"{cell['sessions_per_gb']:,.0f}",
        ]
        for cell in results["cells"]
    ]
    suffix = " (quick)" if results.get("quick") else ""
    table = format_table(
        ["cell", "sessions", "ops/s", "migr", "wall s", "peak MB",
         "sessions/GB"],
        rows,
        title=f"Fleet tier memory/throughput{suffix}",
    )
    table += (
        f"\nanchor {results['anchor_label']!r} deterministic across "
        f"re-runs: {results['deterministic']}"
    )
    full_stack = results.get("full_stack")
    if full_stack:
        anchor = full_stack["anchor"]
        knee_rows = [
            [
                f"{row['load_multiplier']:.1f}x",
                f"{row['offered_ops_per_sec']:,.0f}",
                f"{row['throughput_ops_per_sec']:,.0f}",
                row["in_flight_at_horizon"],
                f"{row['write_p99_ms'] or 0.0:.1f}",
            ]
            for row in full_stack["load_knee"]
        ]
        ff = full_stack["fast_forward"]
        table += "\n\n" + format_table(
            ["load", "offered/s", "done/s", "backlog", "write p99 ms"],
            knee_rows,
            title=(
                f"Full stack ({anchor['system']}/{anchor['substrate']}): "
                f"{anchor['sessions']:,} real sessions, "
                f"{anchor['n_sites']} sites — "
                f"wall {anchor['wall_s']:.1f}s, "
                f"peak {anchor['traced_peak_mb']:.1f} MB, "
                f"{anchor['sessions_per_gb']:,.0f} sessions/GB"
            ),
        )
        table += (
            f"\nfast-forward on sparse cell ({ff['ticks']:,} ticks): "
            f"{ff['wall_s']:.2f}s vs naive {ff['naive_wall_s']:.2f}s = "
            f"{ff['speedup']}x, payloads identical: "
            f"{ff['payloads_identical']}"
        )
    return table


# -- experiment-suite runner benchmark ----------------------------------------


def bench_experiments(
    quick: bool = False,
    seed: int = 42,
    jobs: Optional[int] = None,
    suites: Optional[List[str]] = None,
    pool: bool = True,
) -> Dict[str, Any]:
    """Wall-clock comparison of the scenario runner's three modes.

    Runs the full figure/ablation scenario set three ways — serial
    in-process (the determinism reference), parallel cold-cache, and
    parallel warm-cache — verifies all three produce identical payloads
    *and* identical rendered tables, and reports the wall-clock numbers
    that ``BENCH_experiments.json`` commits.

    "Cold" means cold *everything*: the warm worker pool is shut down
    first, so the parallel number pays pool start-up (interpreter +
    import) exactly once, the way a fresh ``repro experiments`` run
    would. On a single-core machine the speedup is recorded but marked
    ``single_core_advisory`` — process parallelism cannot beat serial
    with one core, so the number says nothing about the executor.
    """
    import shutil
    import tempfile

    from repro.runner import ResultCache, build_suite, code_digest, execute, render_suite
    from repro.runner.pool import shutdown_pool
    from repro.runner.suites import DEFAULT_SUITE_NAMES

    names = list(suites or DEFAULT_SUITE_NAMES)
    jobs = jobs or (os.cpu_count() or 1)
    cpu_count = os.cpu_count() or 1
    scenarios = []
    for name in names:
        scenarios += build_suite(name, quick, seed)

    def tables(results: Dict[str, Any]) -> str:
        return "\n".join(render_suite(n, quick, seed, results) for n in names)

    serial = execute(scenarios, jobs=1)
    serial.raise_on_failure()

    cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        # Charge pool start-up to the cold run: a warm fleet left over
        # from an earlier call would flatter the number.
        shutdown_pool()
        cold = execute(
            scenarios,
            jobs=jobs,
            cache=ResultCache(cache_root),
            timeout_s=3600,
            pool=pool,
        )
        cold.raise_on_failure()
        warm = execute(
            scenarios,
            jobs=jobs,
            cache=ResultCache(cache_root),
            timeout_s=3600,
            pool=pool,
        )
        warm.raise_on_failure()
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    identical = (
        serial.results == cold.results == warm.results
        and tables(serial.results) == tables(cold.results)
    )
    if not identical:
        raise AssertionError(
            "serial, parallel, and cache-warm runs disagree — the runner's "
            "determinism contract is broken"
        )
    return {
        "quick": quick,
        "seed": seed,
        "jobs": jobs,
        "cpu_count": cpu_count,
        "executor": "pool" if pool else "spawn",
        "suites": names,
        "cells": len(serial.results),
        "serial_wall_s": round(serial.wall_s, 3),
        "parallel_cold_wall_s": round(cold.wall_s, 3),
        "parallel_warm_wall_s": round(warm.wall_s, 3),
        "parallel_speedup": (
            round(serial.wall_s / cold.wall_s, 3) if cold.wall_s else None
        ),
        # With one core the speedup measures scheduling overhead, not
        # parallelism — recorded for the trajectory, meaningless as a gate.
        "single_core_advisory": cpu_count < 2,
        "warm_fraction_of_cold": (
            round(warm.wall_s / cold.wall_s, 4) if cold.wall_s else None
        ),
        "warm_cache_hits": warm.cache_hits,
        "results_identical": identical,
        "code_digest": code_digest(),
    }


def _format_experiments(results: Dict[str, Any]) -> str:
    from repro.experiments.common import format_table

    rows = [
        ["serial (jobs=1)", f"{results['serial_wall_s']:.1f}", "1.00x"],
        [
            f"parallel cold (jobs={results['jobs']})",
            f"{results['parallel_cold_wall_s']:.1f}",
            f"{results['parallel_speedup']:.2f}x",
        ],
        [
            f"parallel warm (jobs={results['jobs']})",
            f"{results['parallel_warm_wall_s']:.1f}",
            f"{results['warm_fraction_of_cold']:.1%} of cold",
        ],
    ]
    suffix = " (quick)" if results.get("quick") else ""
    table = format_table(
        ["mode", "wall s", "vs serial"],
        rows,
        title=(
            f"Experiment suite runner{suffix}: {results['cells']} cells, "
            f"{results['cpu_count']} CPU(s), "
            f"{results.get('executor', 'spawn')} executor"
        ),
    )
    if results.get("single_core_advisory"):
        table += (
            "\n(single core: speedup numbers are advisory — parallelism "
            "cannot pay here)"
        )
    return table


# -- hardware normalization ---------------------------------------------------


def calibrate(rounds: int = 3) -> float:
    """A machine-speed score (higher = faster), used to normalize --check.

    Runs a tiny fixed kernel workload — the same primitives the real
    benchmarks exercise — and returns its events/sec. Comparing
    ``events_per_sec / calibration`` across machines cancels most of the
    hardware difference, so the CI regression gate tracks code changes, not
    runner speed.
    """
    from repro.sim import Environment, Store

    best = 0.0
    for _ in range(rounds):
        env = Environment()
        store = Store(env)

        def bouncer(env):
            for r in range(2000):
                yield env.timeout(0.1)
                store.put(r)
                yield store.get()

        env.process(bouncer(env), name="cal")
        started = time.perf_counter()
        env.run()
        wall = time.perf_counter() - started
        best = max(best, env._seq / wall)
    return best


# -- suite -------------------------------------------------------------------


#: Bench names and headline metric per suite.
_KERNEL_BENCHES = ("kernel", "burst", "transport", "ycsb")
_SERVER_BENCHES = ("datatree", "watches", "tokens")


def run_suite(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    results: Dict[str, Any] = {
        "quick": quick,
        "calibration_events_per_sec": calibrate(),
        "kernel": bench_kernel(quick=quick),
        "burst": bench_burst(quick=quick),
        "transport": bench_transport(quick=quick),
        "ycsb": bench_ycsb(quick=quick, seed=seed),
    }
    return results


def run_server_suite(quick: bool = False, seed: int = 42) -> Dict[str, Any]:
    results: Dict[str, Any] = {
        "quick": quick,
        "calibration_events_per_sec": calibrate(),
        "datatree": bench_datatree(quick=quick, seed=seed),
        "watches": bench_watches(quick=quick, seed=seed),
        "tokens": bench_tokens(quick=quick, seed=seed),
    }
    return results


def _format_server_suite(results: Dict[str, Any]) -> str:
    from repro.experiments.common import format_table

    rows = [
        [
            name,
            results[name]["ops"],
            f"{results[name]['ops_per_sec']:,.0f}",
        ]
        for name in _SERVER_BENCHES
    ]
    suffix = " (quick)" if results.get("quick") else ""
    return format_table(
        ["bench", "ops", "ops/sec"],
        rows,
        title=f"Server-layer (protocol) throughput{suffix}",
    )


def _format_suite(results: Dict[str, Any]) -> str:
    from repro.experiments.common import format_table

    rows = [
        [
            "kernel",
            results["kernel"]["events"],
            f"{results['kernel']['events_per_sec']:,.0f}",
            "-",
        ],
        [
            "burst",
            results["burst"]["events"],
            f"{results['burst']['events_per_sec']:,.0f}",
            "-",
        ]
        if "burst" in results
        else None,
        [
            "transport",
            results["transport"]["events"],
            f"{results['transport']['events_per_sec']:,.0f}",
            f"{results['transport']['msgs_per_sec']:,.0f} msgs/s",
        ],
        [
            "ycsb",
            results["ycsb"]["events"],
            f"{results['ycsb']['events_per_sec']:,.0f}",
            f"{results['ycsb']['ops_per_wall_sec']:,.0f} ops/s",
        ],
    ]
    rows = [row for row in rows if row is not None]
    suffix = " (quick)" if results.get("quick") else ""
    return format_table(
        ["bench", "events", "events/sec", "domain rate"],
        rows,
        title=f"Simulator throughput{suffix}",
    )


def _check(
    results: Dict[str, Any],
    baseline: Dict[str, Any],
    benches: tuple = _KERNEL_BENCHES,
    metric: str = "events_per_sec",
) -> List[str]:
    """Compare normalized throughput against a baseline suite result.

    Returns a list of failure messages (empty = pass). Only benches present
    in both results are compared, and the baseline must have been taken at
    the same size (quick vs full) to be comparable. Each bench uses its own
    tolerance (_TOLERANCES, default CHECK_TOLERANCE) and its own rate
    (_RATE_METRICS, default ``metric``).
    """
    failures = []
    if bool(baseline.get("quick")) != bool(results.get("quick")):
        return [
            "baseline was recorded at a different size "
            f"(baseline quick={baseline.get('quick')}, "
            f"run quick={results.get('quick')}); re-record the baseline"
        ]
    cal_now = results["calibration_events_per_sec"]
    cal_base = baseline.get("calibration_events_per_sec")
    scale = (cal_now / cal_base) if cal_base else 1.0
    for name in benches:
        if name not in baseline or name not in results:
            continue
        tolerance = _TOLERANCES.get(name, CHECK_TOLERANCE)
        rate = _RATE_METRICS.get(name, metric)
        measured = results[name][rate]
        expected = baseline[name][rate] * scale
        floor = expected * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{name}: {measured:,.0f} {rate} is more than "
                f"{tolerance:.0%} below the normalized baseline "
                f"{expected:,.0f} (floor {floor:,.0f})"
            )
    return failures


def _git_commit() -> str:
    """Short commit hash for bench-history points ("unknown" off-repo)."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except Exception:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _write_payload(
    out: str,
    existing: Dict[str, Any],
    results: Dict[str, Any],
    schema: str,
    benches: tuple,
    metric: str,
    label: Optional[str],
) -> Dict[str, Any]:
    """Merge a fresh suite run into a BENCH file.

    Keeps the recorded pre-optimization ``before`` section, recomputes
    per-bench and aggregate (geometric-mean) speedups when both sides are
    present, and appends one ``{commit, label, <metric>}`` point to the
    bounded ``history`` trajectory.
    """
    payload: Dict[str, Any] = {
        "schema": schema,
        "before": existing.get("before"),
        "after" if not results.get("quick") else "quick_after": results,
    }
    for key in ("after", "quick_after"):
        if key not in payload and key in existing:
            payload[key] = existing[key]
    before = payload.get("before")
    after = payload.get("after")
    if before and after:
        speedup = {}
        for name in benches:
            if name in before and name in after:
                rate = _RATE_METRICS.get(name, metric)
                speedup[name] = round(after[name][rate] / before[name][rate], 3)
        if speedup:
            product = 1.0
            for value in speedup.values():
                product *= value
            speedup["aggregate"] = round(product ** (1.0 / len(speedup)), 3)
        payload["speedup"] = speedup
    elif "speedup" in existing:
        payload["speedup"] = existing["speedup"]

    entry: Dict[str, Any] = {
        "commit": _git_commit(),
        "quick": bool(results.get("quick")),
        metric: {
            name: round(results[name][metric], 1)
            for name in benches
            if name in results
        },
    }
    if label:
        entry["label"] = label
    history = list(existing.get("history", []))
    history.append(entry)
    payload["history"] = history[-HISTORY_LIMIT:]

    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


def _load_bench_file(path: str) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Measure simulator throughput (kernel/transport/ycsb).",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes (CI smoke run)"
    )
    parser.add_argument(
        "--server",
        action="store_true",
        help=(
            "run the server-layer (protocol/state-machine) microbench group "
            f"(datatree/watches/tokens) and write {SERVER_BENCH_FILE} instead"
        ),
    )
    parser.add_argument(
        "--label",
        default=None,
        help="name for this run's bench-history point (default: commit only)",
    )
    parser.add_argument(
        "--experiments",
        action="store_true",
        help=(
            "benchmark the experiment-suite runner (serial vs parallel vs "
            f"cache-warm) and write {EXPERIMENTS_BENCH_FILE} instead"
        ),
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "run the fleet-tier memory/throughput benchmark (mesoscale "
            "site/load sweeps plus the full-stack anchor, load knee and "
            f"fast-forward pair) and write {FLEET_BENCH_FILE} instead"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for --experiments (0 = one per CPU)",
    )
    parser.add_argument(
        "--pool",
        dest="pool",
        action="store_true",
        default=True,
        help="--experiments: parallel runs use the warm worker pool "
        "(default)",
    )
    parser.add_argument(
        "--no-pool",
        dest="pool",
        action="store_false",
        help="--experiments: spawn one process per cell instead",
    )
    parser.add_argument(
        "--json", action="store_true", help="print results as JSON"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "compare against the committed baseline in BENCH_kernel.json "
            f"and fail on a >{CHECK_TOLERANCE:.0%}% rate regression "
            "(ycsb: ops/sec at 20%%; the microloops: events/sec)"
        ),
    )
    parser.add_argument(
        "--out",
        default=BENCH_FILE,
        help=f"result file to write/check (default {BENCH_FILE})",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    if args.fleet:
        results = bench_fleet(quick=args.quick, seed=args.seed)
        out = args.out if args.out != BENCH_FILE else FLEET_BENCH_FILE

        if args.check:
            failures = _check_fleet(results)
            print(_format_fleet(results))
            if failures:
                for failure in failures:
                    print(f"FAIL {failure}")
                return 1
            print(
                f"OK: fleet tier within ceilings "
                f"({results['max_sessions']:,} sessions, peak "
                f"{results['max_traced_peak_mb']:.1f} MB traced, "
                "deterministic)"
            )
            return 0

        existing = _load_bench_file(out) or {}
        payload = {"schema": "bench_fleet/v1"}
        payload["quick" if args.quick else "full"] = results
        for key in ("quick", "full"):
            if key not in payload and key in existing:
                payload[key] = existing[key]
        entry = {
            "commit": _git_commit(),
            "quick": bool(args.quick),
            "max_sessions": results["max_sessions"],
            "max_traced_peak_mb": results["max_traced_peak_mb"],
            "deterministic": results["deterministic"],
        }
        full_stack = results.get("full_stack")
        if full_stack:
            entry["full_stack_sessions"] = full_stack["anchor"]["sessions"]
            entry["full_stack_wall_s"] = full_stack["anchor"]["wall_s"]
            entry["full_stack_sessions_per_gb"] = full_stack["anchor"][
                "sessions_per_gb"
            ]
            entry["fast_forward_speedup"] = full_stack["fast_forward"][
                "speedup"
            ]
        if args.label:
            entry["label"] = args.label
        history = list(existing.get("history", []))
        history.append(entry)
        payload["history"] = history[-HISTORY_LIMIT:]
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        if args.json:
            print(json.dumps(results, indent=2))
        else:
            print(_format_fleet(results))
            print(f"wrote {out}")
        return 0

    if args.experiments:
        results = bench_experiments(
            quick=args.quick,
            seed=args.seed,
            jobs=args.jobs or None,
            pool=args.pool,
        )
        out = args.out if args.out != BENCH_FILE else EXPERIMENTS_BENCH_FILE

        if args.check:
            # The determinism half of the gate always applies; the
            # parallel-beats-serial half is only meaningful with real
            # cores to spread across.
            print(_format_experiments(results))
            if not results["results_identical"]:
                print("FAIL serial and parallel payloads differ")
                return 1
            if results["single_core_advisory"]:
                print(
                    "SKIP parallel-beats-serial gate: "
                    f"cpu_count={results['cpu_count']} < 2 "
                    "(speedup is advisory on a single core)"
                )
                return 0
            speedup = results["parallel_speedup"] or 0.0
            if speedup <= EXPERIMENTS_SPEEDUP_FLOOR:
                print(
                    f"FAIL parallel_speedup {speedup:.2f}x is not above "
                    f"{EXPERIMENTS_SPEEDUP_FLOOR:.1f}x on "
                    f"{results['cpu_count']} cores"
                )
                return 1
            print(
                f"OK: parallel beats serial ({speedup:.2f}x cold on "
                f"{results['cpu_count']} cores, results identical)"
            )
            return 0

        existing = _load_bench_file(out) or {}
        payload = {"schema": "bench_experiments/v1"}
        payload["quick" if args.quick else "full"] = results
        for key in ("quick", "full"):
            if key not in payload and key in existing:
                payload[key] = existing[key]
        entry = {
            "commit": _git_commit(),
            "quick": bool(args.quick),
            "jobs": results["jobs"],
            "cpu_count": results["cpu_count"],
            "executor": results["executor"],
            "parallel_speedup": results["parallel_speedup"],
            "single_core_advisory": results["single_core_advisory"],
        }
        if args.label:
            entry["label"] = args.label
        history = list(existing.get("history", []))
        history.append(entry)
        payload["history"] = history[-HISTORY_LIMIT:]
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        if args.json:
            print(json.dumps(results, indent=2))
        else:
            print(_format_experiments(results))
            print(f"wrote {out}")
        return 0

    if args.server:
        suite_name = "server"
        results = run_server_suite(quick=args.quick, seed=args.seed)
        out = args.out if args.out != BENCH_FILE else SERVER_BENCH_FILE
        schema = "bench_server/v1"
        benches: tuple = _SERVER_BENCHES
        metric = "ops_per_sec"
        formatted = _format_server_suite(results)
    else:
        suite_name = "kernel"
        results = run_suite(quick=args.quick, seed=args.seed)
        out = args.out
        schema = "bench_kernel/v1"
        benches = _KERNEL_BENCHES
        metric = "events_per_sec"
        formatted = _format_suite(results)

    if args.check:
        existing = _load_bench_file(out)
        if not existing:
            print(f"--check: no baseline file {out!r}")
            return 2
        key = "quick_after" if args.quick else "after"
        baseline = existing.get(key)
        if not baseline:
            print(f"--check: baseline file has no {key!r} section")
            return 2
        failures = _check(results, baseline, benches=benches, metric=metric)
        print(formatted)
        if failures:
            for failure in failures:
                print(f"FAIL {failure}")
            return 1
        print(f"OK: {suite_name} suite within tolerance of committed baseline")
        return 0

    existing = _load_bench_file(out) or {}
    _write_payload(out, existing, results, schema, benches, metric, args.label)

    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(formatted)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
