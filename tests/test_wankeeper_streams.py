"""WAN stream machinery: replication ordering, dedup, leader handoff."""

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper.messages import TokenReturn

from tests.support import fresh_world, run_app


def wankeeper(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


def test_local_commits_relayed_in_order_to_all_sites():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/seq", b"")
        yield client.set_data("/seq", b"warm")  # migrate token to CA
        yield env.timeout(300.0)
        for i in range(20):
            yield client.set_data("/seq", str(i).encode())
        yield env.timeout(5000.0)
        return True

    run_app(env, app())
    # Every replica at every site applied all 21 set_data ops in order:
    # the final version and data agree everywhere.
    for server in deployment.servers:
        node = server.tree.node("/seq")
        assert node.data == b"19"
        assert node.version == 21


def test_relay_watermarks_advance():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        for i in range(5):
            yield client.create(f"/r{i}", b"")
        yield env.timeout(5000.0)
        return True

    run_app(env, app())
    # Hub-serialized creates were relayed; each non-hub site's applied
    # relay count matches the hub's filtered stream length.
    hub = deployment.hub_leader
    for site in (CALIFORNIA, FRANKFURT):
        leader = deployment.site_leader(site)
        assert leader._applied_relay_count == len(hub._relay_streams[site])
        assert hub._relays[site].acked == leader._applied_relay_count


def test_replicate_stream_resumes_after_hub_leader_change():
    """Local commits made while the hub leader is down must still reach
    the other sites once a new hub leader is elected."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)

    def app():
        yield client.connect()
        yield client.create("/stream", b"")
        yield client.set_data("/stream", b"warm")  # token -> CA
        yield env.timeout(300.0)
        hub = deployment.hub_leader
        hub.crash()
        # Local writes continue during the hub outage (token held).
        for i in range(5):
            yield client.set_data("/stream", f"during-{i}".encode())
        yield env.timeout(30000.0)  # hub site re-elects; streams resume
        return True

    run_app(env, app())
    live = [s for s in deployment.servers if s.is_alive]
    for server in live:
        assert server.tree.node("/stream").data == b"during-4", server.name


def test_duplicate_wan_submit_not_double_applied():
    """Client request retries (after ConnectionLoss) may re-submit; the
    version counter tells us whether a write applied twice."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(FRANKFURT)

    def app():
        yield client.connect()
        yield client.create("/once", b"")
        yield env.timeout(3000.0)
        return True

    run_app(env, app())
    # The create applied exactly once everywhere: cversion of / counts it.
    versions = {s.name: s.tree.node("/once").version for s in deployment.servers}
    assert set(versions.values()) == {0}


def test_hub_site_local_writes_relay_to_other_sites():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/from-hub", b"h")
        yield env.timeout(3000.0)
        return True

    run_app(env, app())
    for server in deployment.servers:
        assert server.tree.node("/from-hub") is not None


def test_token_return_after_recall_is_durable_across_site_restart():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA, request_timeout_ms=30000.0)
    fr = deployment.client(FRANKFURT, request_timeout_ms=30000.0)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/durable-return", b"")
        yield ca.set_data("/durable-return", b"1")  # token -> CA
        yield env.timeout(300.0)
        yield fr.set_data("/durable-return", b"2")  # recall to hub
        yield env.timeout(2000.0)
        # Crash and restart the whole CA site, one server at a time
        # (keeping quorum): the release marker is in the site log.
        for server in list(deployment.by_site[CALIFORNIA]):
            server.crash()
            yield env.timeout(8000.0)
            server.restart()
            yield env.timeout(8000.0)
        leader = deployment.site_leader(CALIFORNIA)
        return "/durable-return" in leader.site_tokens.owned

    owned_after = run_app(env, app(), timeout_ms=600000.0)
    # The token was released before the restarts; no server may believe
    # it still owns it.
    assert owned_after is False
    hub = deployment.hub_leader
    assert hub.hub_tokens.at_hub("/durable-return")


def test_a_stale_token_return_after_a_regrant_is_refused():
    """A return names the grant it returns (the site's grant count). A
    late duplicate that arrives after the hub granted the key back to the
    same site names an older grant; accepting it would leave the hub
    believing the token is home while the site owns it."""
    env, topo, net = fresh_world(seed=7)
    deployment = wankeeper(env, net, topo)
    ca = deployment.client(CALIFORNIA)
    fr = deployment.client(FRANKFURT)
    returns = []
    net.tap(lambda e: returns.append(e) if isinstance(e.body, TokenReturn) else None)

    def app():
        yield ca.connect()
        yield fr.connect()
        yield ca.create("/r", b"")
        for _ in range(3):
            yield ca.set_data("/r", b"ca")  # token -> CA
        yield fr.set_data("/r", b"fr")  # recalled: CA returns it
        yield env.timeout(1000.0)
        for _ in range(3):
            yield ca.set_data("/r", b"ca")  # granted back to CA
        yield env.timeout(1000.0)
        (stale,) = returns  # a duplicate of the one return, late
        net.send(stale.src, stale.dst, stale.body)
        yield env.timeout(1000.0)
        return True

    run_app(env, app())
    assert "/r" in deployment.site_leader(CALIFORNIA).site_tokens.owned
    assert deployment.hub_leader.hub_tokens.where("/r") == CALIFORNIA


def test_relay_streams_live_only_on_the_acting_hub_leader():
    """Built from the applied history on first use, in the founding sites'
    order, and gone the moment the server stops leading."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        for i in range(5):
            yield client.create(f"/live{i}", b"")
            yield client.set_data(f"/live{i}", b"ca")
        yield env.timeout(3000.0)
        return True

    run_app(env, app())
    hub = deployment.hub_leader
    streams = hub._relay_streams
    assert list(streams) == [CALIFORNIA, FRANKFURT]
    for site, stream in streams.items():
        assert stream == [t for t in hub._wan_history if t.serialized_at != site]
    assert all(s._relay_streams is None for s in deployment.servers if s is not hub)
    hub.crash()
    assert hub._relay_streams is None
