"""Ablations of WanKeeper's design choices (DESIGN.md A1–A5), one cell each.

* **A1** — migration threshold ``r``: the paper recommends ``r = 2``; the
  sweep shows r=1 thrashing under contention and large r wasting locality.
* **A2** — Markov token prediction (§II-B): a phase-shifting workload where
  proactive migration beats the reactive consecutive-``r`` rule.
* **A3** — bulk tokens for sequential znodes (§III-B): fair-lock throughput
  when the lock is used from one site, with and without token migration.
* **A4** — fractional read/write tokens (§VI): read-mostly cross-site
  workload under the three read modes (local / forward / fractional).
* **A5** — hub placement (§I, "changing the primary site assignment"): a
  California-heavy workload with the level-2 broker in each region.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.experiments.common import build_world
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import (
    ConsecutiveAccessPolicy,
    MarkovPolicy,
    NeverMigratePolicy,
)
from repro.workloads import LatencyRecorder, OverlapChooser, UniformChooser, YcsbSpec
from repro.workloads.driver import ClientPlan, drive, run_ycsb
from repro.zk.recipes import FairLock

__all__ = [
    "run_bulk_token_cell",
    "run_hub_placement_cell",
    "run_prediction_cell",
    "run_read_mode_cell",
    "run_threshold_cell",
]


#: Simulated time A2 and A3 may run before their cell fails as wedged;
#: a healthy run needs well under a minute.
DRIVE_BUDGET_MS = 3.6e6


# ---------------------------------------------------------------- A1: r sweep


def run_threshold_cell(
    r: Optional[int],
    seed: int = 42,
    record_count: int = 300,
    operations_per_client: int = 1500,
    overlap: float = 0.3,
) -> Dict[str, Any]:
    """One cell of A1: two contending sites at threshold ``r`` (None = never)."""
    if r is None:
        factory = NeverMigratePolicy
        label = "never"
    else:
        def factory(r=r):
            return ConsecutiveAccessPolicy(r=r)

        label = f"r={r}"
    world = build_world("wk", seed=seed, policy_factory=factory)
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operations_per_client,
        write_fraction=1.0,
    )
    recorders = {}
    plans = []
    for index, site in enumerate((CALIFORNIA, FRANKFURT)):
        recorder = LatencyRecorder(f"A1-{label}-{site}")
        recorders[site] = recorder
        plans.append(
            ClientPlan(
                world.client(site),
                world.rngs.stream(f"a1-{site}"),
                recorder,
                chooser=OverlapChooser(record_count, overlap, index),
            )
        )
    run_ycsb(world.env, plans, spec, load_client=world.client(VIRGINIA))
    merged = recorders[CALIFORNIA].merged(recorders[FRANKFURT])
    hub = world.deployment.hub_leader
    return {
        "label": label,
        "total_throughput": sum(
            r.throughput_ops_per_sec() for r in recorders.values()
        ),
        "write_mean_ms": merged.mean_latency("write"),
        "tokens_recalled": hub.tokens_recalled if hub else 0,
    }


# ---------------------------------------------------------- A2: Markov model


def _phase_shifting_client(world, client, spec, rng, recorder, phase_len, phases):
    """A client whose site-locality arrives in phases: it writes a small
    key set repeatedly, interleaved with the other site's phases."""
    env = world.env

    def body():
        if not client.connected:
            yield client.connect()
        for _phase in range(phases):
            for _ in range(phase_len):
                index = rng.randrange(spec.record_count)
                start = env.now
                yield client.set_data(spec.key(index), b"v")
                recorder.record("write", start, env.now - start)
    return body()


#: A2 policy labels -> factory, in presentation order.
PREDICTION_POLICIES = {
    "consecutive(r=2)": lambda: ConsecutiveAccessPolicy(r=2),
    "markov(r=2,t=0.6)": lambda: MarkovPolicy(r=2, threshold=0.6),
}


def run_prediction_cell(
    policy: str,
    seed: int = 42,
    record_count: int = 8,
    phase_len: int = 32,
    phases: int = 6,
) -> Dict[str, Any]:
    """One cell of A2: the phase-shifting workload under one policy.

    Site phases alternate over a shared key set. The Markov model learns
    that, once a site touches a record, the same site keeps touching it
    through the phase — and migrates on the first access of each phase
    instead of the second.
    """
    factory = PREDICTION_POLICIES[policy]
    world = build_world("wk", seed=seed, policy_factory=factory)
    env = world.env
    spec = YcsbSpec(
        record_count=record_count, operation_count=0, write_fraction=1.0
    )
    recorder = LatencyRecorder(f"A2-{policy}")

    def orchestrate():
        loader = world.client(VIRGINIA)
        yield loader.connect()
        from repro.workloads.driver import load_records

        yield env.process(load_records(loader, spec))
        yield env.timeout(500.0)
        ca = world.client(CALIFORNIA)
        fr = world.client(FRANKFURT)
        rng_ca = world.rngs.stream("a2-ca")
        rng_fr = world.rngs.stream("a2-fr")
        # Phases strictly alternate between the sites.
        for phase in range(phases):
            client = ca if phase % 2 == 0 else fr
            rng = rng_ca if phase % 2 == 0 else rng_fr
            yield env.process(
                _phase_shifting_client(
                    world, client, spec, rng, recorder, phase_len, 1
                )
            )

    drive(env, env.process(orchestrate()), DRIVE_BUDGET_MS)
    return {
        "policy": policy,
        "total_throughput": recorder.throughput_ops_per_sec(),
        "write_mean_ms": recorder.mean_latency("write"),
    }


# --------------------------------------------------------- A3: bulk tokens


#: A3 policy labels -> factory, in presentation order.
BULK_TOKEN_POLICIES = {
    "bulk-migrating": ConsecutiveAccessPolicy,
    "pinned-at-hub": NeverMigratePolicy,
}


def run_bulk_token_cell(
    policy: str,
    seed: int = 42,
    rounds: int = 30,
) -> Dict[str, Any]:
    """One cell of A3: fair-lock rounds, all contenders in California.

    With migration on, the lock root's bulk token moves to California and
    every acquire/release round is site-local; pinned at the hub
    (NeverMigrate), every round pays WAN trips.
    """
    factory = BULK_TOKEN_POLICIES[policy]
    world = build_world("wk", seed=seed, policy_factory=factory)
    env = world.env
    count = {"rounds": 0}

    def contender(client, lock):
        yield client.connect()
        for _ in range(rounds):
            yield from lock.acquire()
            count["rounds"] += 1
            yield env.timeout(1.0)  # tiny critical section
            yield from lock.release()

    def orchestrate():
        start = env.now
        procs = []
        for index in range(2):
            client = world.client(CALIFORNIA, request_timeout_ms=30000.0)
            lock = FairLock(env, client, "/biglock")
            procs.append(env.process(contender(client, lock)))
        for proc in procs:
            yield proc
        return env.now - start

    elapsed_ms = drive(env, env.process(orchestrate()), DRIVE_BUDGET_MS)
    return {
        "label": policy,
        "acquisitions_per_sec": count["rounds"] / (elapsed_ms / 1000.0),
    }


# --------------------------------------------------------- A4: read modes


def run_read_mode_cell(
    mode: str,
    seed: int = 42,
    record_count: int = 100,
    operations_per_client: int = 1000,
    write_fraction: float = 0.05,
) -> Dict[str, Any]:
    """One cell of A4: the cross-site workload under one read mode."""
    world = build_world("wk", seed=seed, read_mode=mode)
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operations_per_client,
        write_fraction=write_fraction,
    )
    recorders = {}
    plans = []
    for index, site in enumerate((CALIFORNIA, FRANKFURT)):
        recorder = LatencyRecorder(f"A4-{mode}-{site}")
        recorders[site] = recorder
        plans.append(
            ClientPlan(
                world.client(site),
                world.rngs.stream(f"a4-{site}"),
                recorder,
                chooser=UniformChooser(record_count),
            )
        )
    run_ycsb(world.env, plans, spec, load_client=world.client(VIRGINIA))
    merged = recorders[CALIFORNIA].merged(recorders[FRANKFURT])
    return {
        "mode": mode,
        "read_mean_ms": merged.mean_latency("read"),
        "total_throughput": sum(
            r.throughput_ops_per_sec() for r in recorders.values()
        ),
    }


# ------------------------------------------------- A5: hub placement


def run_hub_placement_cell(
    l2_site: str,
    seed: int = 42,
    record_count: int = 200,
    operations_per_client: int = 1000,
    write_fraction: float = 0.5,
) -> Dict[str, Any]:
    """One cell of A5: the CA-heavy workload with the hub at ``l2_site``.

    Two California clients and one Frankfurt client; placing the hub where
    the traffic is minimizes the WAN cost of the remote-serialization path.
    """
    from repro.net import wan_topology
    from repro.net.transport import Network
    from repro.sim import Environment, RngRegistry, seeded_rng
    from repro.wankeeper import build_wankeeper_deployment

    env = Environment()
    # Built by hand since build_world pins the hub in Virginia. It keeps
    # wan_topology()'s default 5 % jitter, which A5's numbers are measured
    # on; every other figure and ablation cell runs jitter-free.
    topo = wan_topology()
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(env, net, topo, l2_site=l2_site)
    deployment.start()
    deployment.stabilize()
    rngs = RngRegistry(seed)
    spec = YcsbSpec(
        record_count=record_count,
        operation_count=operations_per_client,
        write_fraction=write_fraction,
    )
    recorders = []
    plans = []
    client_sites = (CALIFORNIA, CALIFORNIA, FRANKFURT)
    for index, site in enumerate(client_sites):
        recorder = LatencyRecorder(f"A5-{l2_site}-{index}")
        recorders.append(recorder)
        plans.append(
            ClientPlan(
                deployment.client(site),
                rngs.stream(f"a5-{index}"),
                recorder,
                chooser=OverlapChooser(
                    record_count, 0.3, client_index=index, client_total=3
                ),
            )
        )
    run_ycsb(env, plans, spec, load_client=deployment.client(l2_site))
    merged = recorders[0]
    for recorder in recorders[1:]:
        merged = merged.merged(recorder)
    return {
        "l2_site": l2_site,
        "total_throughput": sum(
            r.throughput_ops_per_sec() for r in recorders
        ),
        "write_mean_ms": merged.mean_latency("write"),
    }
