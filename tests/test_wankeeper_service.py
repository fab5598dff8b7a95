"""End-to-end WanKeeper tests over the simulated WAN."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment, ConsecutiveAccessPolicy
from repro.zk import WatchType

from tests.support import fresh_world, run_app


def wankeeper(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


def test_deployment_stabilizes_with_site_leaders_and_hub():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    for site in (VIRGINIA, CALIFORNIA, FRANKFURT):
        assert deployment.site_leader(site) is not None
    assert deployment.hub_leader is deployment.site_leader(VIRGINIA)


def test_basic_crud_from_remote_site():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/rec", b"v0")
        data, stat = yield client.get_data("/rec")
        assert data == b"v0"
        yield client.set_data("/rec", b"v1")
        data, _ = yield client.get_data("/rec")
        return data

    assert run_app(env, app()) == b"v1"


def test_token_migrates_after_two_consecutive_accesses():
    """Paper §II-B: r = 2 consecutive requests migrate the token."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/hot", b"0")   # access 1 (hub-serialized)
        yield client.set_data("/hot", b"1")  # access 2 -> grant
        yield env.timeout(200.0)
        return True

    run_app(env, app())
    leader = deployment.site_leader(CALIFORNIA)
    assert "/hot" in leader.site_tokens.owned
    hub = deployment.hub_leader
    assert hub.hub_tokens.where("/hot") == CALIFORNIA


def test_writes_become_local_after_migration():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/fast", b"0")
        yield client.set_data("/fast", b"1")  # token arrives with this one
        yield env.timeout(100.0)
        start = env.now
        yield client.set_data("/fast", b"2")  # should be local now
        return env.now - start

    latency = run_app(env, app())
    assert latency < 10.0, f"expected local write, took {latency} ms"


def test_first_remote_write_costs_about_one_wan_rtt():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        start = env.now
        yield client.create("/remote", b"x")
        return env.now - start

    latency = run_app(env, app())
    rtt = topo.rtt(VIRGINIA, CALIFORNIA)
    assert rtt - 5.0 <= latency < 2.2 * rtt


def test_reads_always_local():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(FRANKFURT)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/shared", b"data")
        yield env.timeout(1000.0)  # replication to Frankfurt
        start = env.now
        data, _ = yield reader.get_data("/shared")
        assert data == b"data"
        return env.now - start

    assert run_app(env, app()) < 5.0


def test_hot_start_tokens_enable_immediate_local_writes():
    env, topo, net = fresh_world()
    deployment = wankeeper(
        env, net, topo, initial_tokens={"/mine": CALIFORNIA}
    )
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        start = env.now
        yield client.create("/mine", b"x")
        return env.now - start

    assert run_app(env, app()) < 10.0


def test_token_recall_on_cross_site_contention():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        # CA takes the token.
        yield ca.create("/contended", b"0")
        yield ca.set_data("/contended", b"ca1")
        yield env.timeout(200.0)
        assert "/contended" in deployment.site_leader(CALIFORNIA).site_tokens.owned
        # FR writes the same record: hub must recall the token from CA.
        yield fr.set_data("/contended", b"fr1")
        yield env.timeout(500.0)
        data, _ = yield fr.get_data("/contended")
        return data

    assert run_app(env, app()) == b"fr1"
    # Token came home (single FR access doesn't re-migrate with r=2).
    hub = deployment.hub_leader
    assert hub.hub_tokens.at_hub("/contended")


def test_token_follows_access_locality_shift():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/migrant", b"0")
        yield ca.set_data("/migrant", b"1")
        yield env.timeout(200.0)
        yield fr.set_data("/migrant", b"2")
        yield fr.set_data("/migrant", b"3")
        yield env.timeout(500.0)
        return True

    run_app(env, app())
    assert "/migrant" in deployment.site_leader(FRANKFURT).site_tokens.owned
    assert "/migrant" not in deployment.site_leader(CALIFORNIA).site_tokens.owned


def test_all_sites_converge_after_mixed_workload():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    clients = {
        site: deployment.client(site)
        for site in (VIRGINIA, CALIFORNIA, FRANKFURT)
    }

    def app():
        for client in clients.values():
            yield client.connect()
        for i in range(5):
            for site, client in clients.items():
                yield client.create(f"/{site}-{i}", site.encode())
        for site, client in clients.items():
            yield client.set_data(f"/{site}-0", b"updated")
        yield env.timeout(5000.0)  # full cross-site replication
        return True

    run_app(env, app())
    fingerprints = set(deployment.tree_fingerprints().values())
    assert len(fingerprints) == 1


def test_per_object_versions_converge_under_contention():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/obj", b"")
        for i in range(5):
            yield ca.set_data("/obj", f"ca{i}".encode())
            yield fr.set_data("/obj", f"fr{i}".encode())
        yield env.timeout(5000.0)
        return True

    run_app(env, app())
    versions = {
        server.name: server.tree.node("/obj").version
        for server in deployment.servers
    }
    assert len(set(versions.values())) == 1
    datas = {
        server.tree.node("/obj").data for server in deployment.servers
    }
    assert len(datas) == 1


def test_sequential_creates_from_two_sites_are_globally_ordered():
    """Bulk tokens (§III-B): sequence numbers stay unique and dense."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/queue")
        names = []
        for _ in range(3):
            name = yield ca.create("/queue/item-", sequential=True)
            names.append(name)
            name = yield fr.create("/queue/item-", sequential=True)
            names.append(name)
        yield env.timeout(3000.0)
        return names

    names = run_app(env, app())
    suffixes = sorted(int(name[-10:]) for name in names)
    assert suffixes == list(range(6))
    assert len(set(names)) == 6


def test_a_site_deletes_the_sequential_children_another_site_created():
    """The children's bulk token (§III-B) moves with the deletes: Frankfurt
    lists California's sequential items in order and removes each."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/jobs")
        for index in range(3):
            yield ca.create("/jobs/item-", b"ca-%d" % index, sequential=True)
        yield env.timeout(2000.0)
        taken = []
        for name in sorted((yield fr.get_children("/jobs"))):
            data, _stat = yield fr.get_data(f"/jobs/{name}")
            yield fr.delete(f"/jobs/{name}")
            taken.append(data)
        yield env.timeout(2000.0)
        left = yield ca.get_children("/jobs")
        return taken, left

    assert run_app(env, app()) == ([b"ca-0", b"ca-1", b"ca-2"], [])


def test_ephemeral_lifecycle_across_sites():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    owner = deployment.client(CALIFORNIA)
    watcher = deployment.client(FRANKFURT)

    def app():
        yield owner.connect()
        yield watcher.connect()
        yield owner.create("/liveness", b"", ephemeral=True)
        yield env.timeout(1000.0)
        stat = yield watcher.exists("/liveness")
        assert stat is not None and stat.is_ephemeral
        yield owner.close()
        yield env.timeout(2000.0)
        stat = yield watcher.exists("/liveness")
        return stat

    assert run_app(env, app()) is None


def test_watch_fires_across_sites():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    watcher = deployment.client(FRANKFURT)
    writer = deployment.client(CALIFORNIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/signal", b"0")
        yield env.timeout(1000.0)
        yield watcher.get_data("/signal", watch=True)
        yield writer.set_data("/signal", b"1")
        yield env.timeout(1500.0)
        return list(watcher.watch_events)

    events = run_app(env, app())
    assert any(
        e.type == WatchType.NODE_DATA_CHANGED and e.path == "/signal"
        for e in events
    )


def test_token_ownership_is_exclusive():
    """Safety (§II-B): one token per record, one owner at a time."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)
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
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/fight", b"")
        for i in range(8):
            yield ca.set_data("/fight", f"ca{i}".encode())
            check()
            yield fr.set_data("/fight", f"fr{i}".encode())
            check()
        return True

    run_app(env, app())
    assert violations == []


def test_site_leader_failover_recovers_tokens():
    """§II-D: token state is recovered from committed txns after failover."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=20000.0)

    def app():
        yield client.connect()
        yield client.create("/durable-token", b"0")
        yield client.set_data("/durable-token", b"1")  # token -> CA
        yield env.timeout(500.0)
        old_leader = deployment.site_leader(CALIFORNIA)
        assert "/durable-token" in old_leader.site_tokens.owned
        old_leader.crash()
        yield env.timeout(15000.0)  # site re-elects; hub re-learns leader
        new_leader = deployment.site_leader(CALIFORNIA)
        assert new_leader is not None and new_leader is not old_leader
        return "/durable-token" in new_leader.site_tokens.owned

    assert run_app(env, app())


def test_write_after_site_leader_failover_succeeds():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)

    def app():
        yield client.connect()
        yield client.create("/failover", b"0")
        old_leader = deployment.site_leader(CALIFORNIA)
        connected_to_leader = client.server_addr == old_leader.client_addr
        old_leader.crash()
        yield env.timeout(15000.0)
        if connected_to_leader:
            # Our server died with the leader; reconnect to a survivor.
            yield client.reconnect(deployment.server_at(CALIFORNIA).client_addr)
        yield client.set_data("/failover", b"recovered")
        data, _ = yield client.get_data("/failover")
        return data

    assert run_app(env, app()) == b"recovered"


def test_hub_leader_failover_resumes_cross_site_traffic():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)

    def app():
        yield client.connect()
        yield client.create("/pre-failover", b"0")
        hub = deployment.hub_leader
        hub.crash()
        yield env.timeout(20000.0)  # hub site re-elects; sites re-probe
        new_hub = deployment.hub_leader
        assert new_hub is not None and new_hub is not hub
        # A fresh record: requires hub serialization.
        yield client.create("/post-failover", b"1")
        data, _ = yield client.get_data("/post-failover")
        return data

    assert run_app(env, app()) == b"1"


def test_hub_failover_preserves_migrated_token_locations():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)

    def app():
        yield client.connect()
        yield client.create("/sticky", b"0")
        yield client.set_data("/sticky", b"1")  # migrate to CA
        yield env.timeout(500.0)
        hub = deployment.hub_leader
        assert hub.hub_tokens.where("/sticky") == CALIFORNIA
        hub.crash()
        yield env.timeout(20000.0)
        new_hub = deployment.hub_leader
        return new_hub.hub_tokens.where("/sticky")

    assert run_app(env, app()) == CALIFORNIA


def test_multi_spanning_keys_at_different_sites():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)

    def app():
        from repro.zk import SetDataOp

        yield ca.connect()
        yield fr.connect()
        # Give /a to CA and /b to FR.
        yield ca.create("/a", b"0")
        yield ca.set_data("/a", b"1")
        yield fr.create("/b", b"0")
        yield fr.set_data("/b", b"1")
        yield env.timeout(500.0)
        # A multi touching both keys needs both tokens recalled to the hub.
        results = yield ca.multi(
            [SetDataOp("/a", b"multi"), SetDataOp("/b", b"multi")]
        )
        yield env.timeout(3000.0)
        return len(results)

    assert run_app(env, app()) == 2
    for server in deployment.servers:
        assert server.tree.node("/a").data == b"multi"
        assert server.tree.node("/b").data == b"multi"
