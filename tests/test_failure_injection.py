"""Failure injection: partitions, crash storms, and recovery invariants."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment

from tests.support import fresh_world, plain_zk, run_app


def wankeeper(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


def test_wan_partition_local_writes_continue():
    """A site holding tokens keeps serving local writes during a WAN
    partition (the paper's availability story: causal + available)."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)

    def app():
        yield client.connect()
        yield client.create("/island", b"0")
        yield client.set_data("/island", b"1")  # token -> California
        yield env.timeout(500.0)
        net.partition(CALIFORNIA, VIRGINIA)
        net.partition(CALIFORNIA, FRANKFURT)
        # Local writes on owned tokens still commit.
        start = env.now
        yield client.set_data("/island", b"partitioned")
        latency = env.now - start
        net.heal_all()
        yield env.timeout(10000.0)
        return latency

    latency = run_app(env, app())
    assert latency < 10.0
    # After healing, the write reaches every site.
    for server in deployment.servers:
        assert server.tree.node("/island").data == b"partitioned"


def test_wan_partition_remote_writes_blocked_then_recover():
    """Writes needing the hub stall during a partition and succeed after
    healing (client-level retry)."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=3000.0)

    def app():
        from repro.zk import ConnectionLossError

        yield client.connect()
        net.partition(CALIFORNIA, VIRGINIA)
        blocked = False
        try:
            yield client.create("/needs-hub", b"x")
        except ConnectionLossError:
            blocked = True
        net.heal_all()
        yield env.timeout(5000.0)
        yield client.create("/needs-hub-2", b"y")
        return blocked

    assert run_app(env, app())


def test_token_exclusivity_across_site_leader_crashes():
    """Crash/recover a site leader mid-contention; no key is ever owned by
    two sites at once."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)
    fr = deployment.client(FRANKFURT, request_timeout_ms=30000.0)
    violations = []

    def check():
        owners = {}
        for site in (VIRGINIA, CALIFORNIA, FRANKFURT):
            leader = deployment.site_leader(site)
            if leader is None:
                continue
            for key in leader.site_tokens.owned:
                owners.setdefault(key, []).append(site)
        for key, sites in owners.items():
            if len(sites) > 1:
                violations.append((env.now, key, sites))

    def app():
        from repro.zk import ConnectionLossError

        yield ca.connect()
        yield fr.connect()
        yield ca.create("/contested", b"0")
        yield ca.set_data("/contested", b"1")  # token -> CA
        yield env.timeout(300.0)
        check()
        old_leader = deployment.site_leader(CALIFORNIA)
        old_leader.crash()
        # Frankfurt wants the token while California is re-electing.
        try:
            yield fr.set_data("/contested", b"fr")
        except ConnectionLossError:
            pass
        yield env.timeout(20000.0)
        check()
        # California recovers and writes again.
        survivor = deployment.server_at(CALIFORNIA)
        yield ca.reconnect(survivor.client_addr)
        yield ca.set_data("/contested", b"ca-again")
        yield ca.set_data("/contested", b"ca-again2")
        yield env.timeout(2000.0)
        check()
        return True

    run_app(env, app())
    assert violations == []


def test_crashed_server_restart_converges():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(FRANKFURT, request_timeout_ms=30000.0)

    def app():
        yield client.connect()
        yield client.create("/base", b"0")
        # Crash a Frankfurt follower (not the one serving the client).
        followers = [
            s for s in deployment.by_site[FRANKFURT]
            if not s.is_leader and s.client_addr != client.server_addr
        ]
        victim = followers[0]
        victim.crash()
        for i in range(5):
            yield client.set_data("/base", f"v{i}".encode())
        yield env.timeout(2000.0)
        victim.restart()
        yield env.timeout(15000.0)
        return victim

    victim = run_app(env, app())
    assert victim.tree.node("/base").data == b"v4"


def test_repeated_hub_leader_crashes():
    """Two successive hub-leader crashes; system keeps making progress."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=40000.0)

    def app():
        yield client.connect()
        crashed = None
        for round_index in range(2):
            yield client.create(f"/round-{round_index}", b"x")
            hub = deployment.hub_leader
            hub.crash()
            if crashed is not None:
                crashed.restart()  # keep the hub site at quorum
            crashed = hub
            yield env.timeout(25000.0)
            assert deployment.hub_leader is not None
        yield client.create("/final", b"done")
        data, _ = yield client.get_data("/final")
        return data

    assert run_app(env, app(), timeout_ms=300000.0) == b"done"


def test_zk_partition_minority_leader_steps_down():
    """Plain ZooKeeper: the leader partitioned from its quorum stops
    serving writes; the majority side elects a new leader."""
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    old_leader = deployment.site_leader(VIRGINIA)
    assert old_leader is not None  # election put it in the leader site

    def app():
        net.partition(VIRGINIA, CALIFORNIA)
        net.partition(VIRGINIA, FRANKFURT)
        yield env.timeout(20000.0)
        return True

    run_app(env, app())
    assert not old_leader.is_leader  # lost quorum, stepped down
    survivors = [
        s for s in deployment.servers if s is not old_leader and s.is_alive
    ]
    new_leaders = [s for s in survivors if s.is_leader]
    assert len(new_leaders) == 1


def test_ephemerals_survive_unrelated_server_crash():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    owner = deployment.client(CALIFORNIA)
    observer_client = deployment.client(FRANKFURT)

    def app():
        yield owner.connect()
        yield observer_client.connect()
        yield owner.create("/presence", b"", ephemeral=True)
        yield env.timeout(1000.0)
        # Crash a Virginia follower; the session lives in California.
        victim = next(
            s for s in deployment.by_site[VIRGINIA] if not s.is_leader
        )
        victim.crash()
        yield env.timeout(8000.0)
        stat = yield observer_client.exists("/presence")
        return stat is not None

    assert run_app(env, app())


def test_message_loss_statistics_are_tracked():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    net.partition(CALIFORNIA, VIRGINIA)

    def app():
        client = deployment.client(CALIFORNIA, request_timeout_ms=2000.0)
        from repro.zk import ConnectionLossError

        yield client.connect()
        try:
            yield client.create("/lost", b"")
        except ConnectionLossError:
            pass
        return True

    run_app(env, app())
    assert net.messages_dropped > 0
