"""Nemesis-driven chaos tests: invariants hold under scheduled faults."""

import random

import pytest

from repro.nemesis import (
    GRAY_DELAY_FACTOR,
    REPAIR_CAP_FACTOR,
    Nemesis,
    NemesisConfig,
)
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment
from repro.zk.errors import ZkError

from tests.support import fresh_world, run_app

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)


def build(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


@pytest.mark.parametrize("seed", [5, 21])
def test_chaos_run_converges_and_keeps_tokens_exclusive(seed):
    env, topo, net = fresh_world(seed=seed)
    deployment = build(env, net, topo)
    nemesis = Nemesis(
        env,
        net,
        deployment,
        random.Random(seed * 13),
        NemesisConfig(
            interval_ms=600.0,
            crash_probability=0.5,
            partition_probability=0.2,
            repair_after_ms=4000.0,
        ),
    )
    keys = [f"/chaos{i}" for i in range(8)]
    completed = {"ops": 0}

    def actor(site, rng, ops):
        client = deployment.client(site, request_timeout_ms=15000.0)
        yield client.connect()
        for index in range(ops):
            key = rng.choice(keys)
            try:
                yield client.set_data(key, f"{site}-{index}".encode())
                completed["ops"] += 1
            except ZkError:
                yield env.timeout(1000.0)  # back off and continue
            yield env.timeout(rng.uniform(50.0, 400.0))

    def app():
        setup = deployment.client(VIRGINIA, request_timeout_ms=15000.0)
        yield setup.connect()
        for key in keys:
            yield setup.create(key, b"")
        nemesis.start()
        procs = [
            env.process(actor(site, random.Random(seed + i), 25))
            for i, site in enumerate(SITES)
        ]
        for proc in procs:
            yield proc
        nemesis.stop_and_repair()
        yield env.timeout(60000.0)  # quiet period: recover + converge
        return True

    run_app(env, app(), timeout_ms=3_000_000.0)

    # Faults actually happened and work still got done.
    assert nemesis.summary().get("crash", 0) + nemesis.summary().get(
        "partition", 0
    ) > 0
    assert completed["ops"] > 30

    # Invariant 1: all live replicas converge.
    fingerprints = {
        s.name: s.tree.fingerprint() for s in deployment.servers if s.is_alive
    }
    assert len(set(fingerprints.values())) == 1, (
        fingerprints,
        nemesis.events,
    )

    # Invariant 2: token exclusivity.
    owners = {}
    for site in SITES:
        leader = deployment.site_leader(site)
        if leader is None:
            continue
        for key in leader.site_tokens.owned:
            owners.setdefault(key, []).append(site)
    for key, sites in owners.items():
        assert len(sites) == 1, (key, sites, nemesis.events)


def test_nemesis_quorum_guard_prevents_total_site_loss():
    env, topo, net = fresh_world(seed=8)
    deployment = build(env, net, topo)
    nemesis = Nemesis(
        env,
        net,
        deployment,
        random.Random(99),
        NemesisConfig(
            interval_ms=500.0, crash_probability=1.0, partition_probability=0.0,
            repair_after_ms=1e9,  # never repair: maximum pressure
        ),
    )
    nemesis.start()
    env.run(until=env.now + 30000.0)
    # Every site keeps a strict majority alive (2 of 3).
    for site in SITES:
        live = sum(1 for s in deployment.by_site[site] if s.is_alive)
        assert live >= 2, site


def test_nemesis_stop_and_repair_restores_everything():
    env, topo, net = fresh_world(seed=4)
    deployment = build(env, net, topo)
    nemesis = Nemesis(
        env, net, deployment, random.Random(3),
        NemesisConfig(interval_ms=400.0, crash_probability=0.8,
                      partition_probability=0.2, repair_after_ms=1e9),
    )
    nemesis.start()
    env.run(until=env.now + 10000.0)
    assert any(not s.is_alive for s in deployment.servers) or nemesis._partitions
    nemesis.stop_and_repair()
    env.run(until=env.now + 100.0)
    assert all(s.is_alive for s in deployment.servers)
    assert not net.partitioned(VIRGINIA, CALIFORNIA)
    kinds = {event.kind for event in nemesis.events}
    assert "restart" in kinds or "heal" in kinds


def test_nemesis_events_are_reproducible():
    def run_once():
        env, topo, net = fresh_world(seed=6)
        deployment = build(env, net, topo)
        nemesis = Nemesis(env, net, deployment, random.Random(77))
        nemesis.start()
        env.run(until=env.now + 20000.0)
        return [(e.time, e.kind, e.target) for e in nemesis.events]

    assert run_once() == run_once()


def test_nemesis_double_start_rejected():
    env, topo, net = fresh_world(seed=2)
    deployment = build(env, net, topo)
    nemesis = Nemesis(env, net, deployment, random.Random(1))
    nemesis.start()
    with pytest.raises(RuntimeError):
        nemesis.start()


def test_quorum_guard_enforces_strict_majority_regardless_of_fraction():
    """However many crashes a schedule asks for, the guard never crashes a
    site below a strict majority: the floor is len(servers)//2 + 1."""
    env, topo, net = fresh_world(seed=9)
    deployment = build(env, net, topo)
    nemesis = Nemesis(
        env, net, deployment, random.Random(42),
        NemesisConfig(repair_after_ms=1e9),
    )
    for index in range(50):
        nemesis._apply_entry({"kind": "crash", "site": index, "victim": index})
    assert nemesis.applied and nemesis.skipped
    for site in SITES:
        live = sum(1 for s in deployment.by_site[site] if s.is_alive)
        assert live >= 2, site  # strict majority of 3


def test_repair_dwell_respects_cap_factor():
    env, topo, net = fresh_world(seed=9)
    deployment = build(env, net, topo)
    nemesis = Nemesis(
        env, net, deployment, random.Random(7),
        NemesisConfig(repair_after_ms=100.0),
    )
    rng = random.Random(7)
    draws = [nemesis._dwell(rng) for _ in range(500)]
    cap = 100.0 * REPAIR_CAP_FACTOR
    assert all(0.0 < draw <= cap for draw in draws)
    assert max(draws) == cap  # the exponential tail actually hits the cap


def test_stop_and_repair_heals_all_fault_kinds():
    """Open symmetric partitions, one-way partitions, degradations, and
    crashes must all be undone by stop_and_repair."""
    env, topo, net = fresh_world(seed=9)
    deployment = build(env, net, topo)
    nemesis = Nemesis(
        env, net, deployment, random.Random(11),
        NemesisConfig(
            repair_after_ms=1e9,
            max_active_partitions=10,
            max_active_degradations=10,
        ),
    )
    for index in range(30):
        for kind in ("crash", "oneway-partition", "partition", "flaky-link",
                     "gray-degrade"):
            nemesis._apply_entry({"kind": kind, "site": index, "victim": index,
                                  "a": index, "b": index + 1})
    assert any(not s.is_alive for s in deployment.servers)
    assert net._partitions and net._oneway_partitions and net._link_profiles

    nemesis.stop_and_repair()
    assert all(s.is_alive for s in deployment.servers)
    assert not net._partitions
    assert not net._oneway_partitions
    assert not net._link_profiles
    assert not (nemesis._down or nemesis._partitions or nemesis._oneway
                or nemesis._degraded)


def test_nemesis_degradation_restores_ambient_profile():
    """A flaky-link or gray fault on a link that already has an ambient
    profile (a lossy-WAN soak baseline) must put the ambient profile back
    on repair instead of wiping it."""
    from repro.net import LinkProfile

    env, topo, net = fresh_world(seed=9)
    deployment = build(env, net, topo)
    ambient = LinkProfile(loss=0.02, duplicate=0.02)
    for site_a, site_b in ((VIRGINIA, CALIFORNIA), (VIRGINIA, FRANKFURT),
                           (CALIFORNIA, FRANKFURT)):
        net.degrade(site_a, site_b, ambient)
    nemesis = Nemesis(
        env, net, deployment, random.Random(13),
        NemesisConfig(repair_after_ms=1e9, max_active_degradations=10),
    )
    nemesis._apply_entry({"kind": "gray-degrade", "a": 0, "b": 1})
    nemesis._apply_entry({"kind": "flaky-link", "a": 1, "b": 2})
    grayed = [e.target for e in nemesis.events if e.kind == "gray-degrade"]
    assert grayed  # ambient profiles no longer block the new fault kinds
    site_a, site_b = grayed[0].split("~")
    profile = net.link_profile(site_a, site_b)
    assert profile.delay_factor == GRAY_DELAY_FACTOR
    assert profile.loss == ambient.loss  # ambient loss kept while gray

    nemesis.stop_and_repair()
    assert net.link_profile(site_a, site_b) == ambient


def test_new_fault_kinds_fire_and_are_reproducible():
    def run_once():
        env, topo, net = fresh_world(seed=14)
        deployment = build(env, net, topo)
        nemesis = Nemesis(
            env, net, deployment, random.Random(55),
            NemesisConfig(
                interval_ms=400.0,
                crash_probability=0.0,
                partition_probability=0.0,
                flaky_link_probability=0.3,
                oneway_partition_probability=0.3,
                gray_degrade_probability=0.3,
                repair_after_ms=1500.0,
            ),
        )
        nemesis.start()
        env.run(until=env.now + 20000.0)
        return [(e.time, e.kind, e.target) for e in nemesis.events]

    events = run_once()
    kinds = {kind for _t, kind, _target in events}
    assert {"flaky-link", "oneway-partition", "gray-degrade"} <= kinds
    assert run_once() == events


def test_chaos_with_l2_failover_enabled():
    """Chaos with the failover machinery armed: intra-site crashes and
    short partitions must never trigger a spurious hub promotion, and the
    system still converges."""
    seed = 12
    env, topo, net = fresh_world(seed=seed)
    deployment = build(env, net, topo, enable_l2_failover=True)
    nemesis = Nemesis(
        env,
        net,
        deployment,
        random.Random(seed),
        NemesisConfig(
            interval_ms=800.0,
            crash_probability=0.4,
            partition_probability=0.2,
            repair_after_ms=3000.0,  # well under the 10 s failover timeout
        ),
    )
    keys = [f"/armed{i}" for i in range(5)]

    def actor(site, rng, ops):
        client = deployment.client(site, request_timeout_ms=15000.0)
        yield client.connect()
        for index in range(ops):
            try:
                yield client.set_data(
                    rng.choice(keys), f"{site}-{index}".encode()
                )
            except ZkError:
                yield env.timeout(800.0)
            yield env.timeout(rng.uniform(50.0, 300.0))

    def app():
        setup = deployment.client(VIRGINIA, request_timeout_ms=15000.0)
        yield setup.connect()
        for key in keys:
            yield setup.create(key, b"")
        nemesis.start()
        procs = [
            env.process(actor(site, random.Random(seed * 7 + i), 20))
            for i, site in enumerate(SITES)
        ]
        for proc in procs:
            yield proc
        nemesis.stop_and_repair()
        yield env.timeout(60000.0)
        return True

    run_app(env, app(), timeout_ms=3_000_000.0)
    # Short repairs never exceed the failover timeout: hub must not move.
    assert deployment.current_l2_site == VIRGINIA
    assert all(s.wan_epoch == 0 for s in deployment.servers if s.is_alive)
    fingerprints = {
        s.name: s.tree.fingerprint() for s in deployment.servers if s.is_alive
    }
    assert len(set(fingerprints.values())) == 1, nemesis.events


# --- declarative schedules (repro fuzz substrate) ---------------------------


def test_schedule_nemesis_applies_deterministically_and_counts_skips():
    from repro.nemesis import ScheduleNemesis

    schedule = [
        {"at": 1000.0, "kind": "crash", "site": 0, "victim": 0, "dwell": 6000.0},
        # Same site while the first victim is down: the quorum guard
        # refuses rather than silently dropping — counted as a skip.
        {"at": 1500.0, "kind": "crash", "site": 0, "victim": 1, "dwell": 6000.0},
        {"at": 2000.0, "kind": "flaky-link", "a": 0, "b": 1,
         "loss": 0.2, "duplicate": 0.1, "dwell": 2000.0},
    ]

    def run_once():
        env, topo, net = fresh_world(seed=8)
        deployment = build(env, net, topo)
        nemesis = ScheduleNemesis(
            env, net, deployment, schedule,
            NemesisConfig(interval_ms=500.0),
        )
        nemesis.start()
        env.run(until=env.now + 15000.0)
        nemesis.stop_and_repair()
        return (
            nemesis.applied,
            nemesis.skipped,
            [(e.time, e.kind, e.target) for e in nemesis.events],
        )

    applied, skipped, events = run_once()
    assert applied == 2
    assert skipped == 1
    kinds = {kind for _t, kind, _target in events}
    assert {"crash", "restart", "flaky-link", "skip"} <= kinds
    assert run_once() == (applied, skipped, events)
