"""Dynamic site addition (§II-D) and the primary-site assignment knob (§I)."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment
from repro.zk.errors import NoNodeError

from tests.support import fresh_world, run_app

TOKYO = "tokyo"
TOKYO_LATENCIES = {VIRGINIA: 85.0, CALIFORNIA: 55.0, FRANKFURT: 120.0}


def wankeeper(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


def test_added_site_joins_and_serves():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    seed_client = deployment.client(CALIFORNIA)

    def app():
        yield seed_client.connect()
        for i in range(5):
            yield seed_client.create(f"/pre-{i}", str(i).encode())
        yield env.timeout(2000.0)
        deployment.add_site(TOKYO, TOKYO_LATENCIES)
        yield env.timeout(20000.0)  # elect, discover hub, replay history
        tokyo_client = deployment.client(TOKYO, request_timeout_ms=30000.0)
        yield tokyo_client.connect()
        # The new site received the full history...
        data, _ = yield tokyo_client.get_data("/pre-3")
        assert data == b"3"
        # ...and can write (hub-serialized: fresh start, no tokens).
        yield tokyo_client.create("/from-tokyo", b"hi")
        yield env.timeout(3000.0)
        return True

    run_app(env, app(), timeout_ms=600000.0)
    # Everyone (old and new) converges.
    fingerprints = {s.name: s.tree.fingerprint() for s in deployment.servers}
    assert len(set(fingerprints.values())) == 1, fingerprints
    assert deployment.site_leader(TOKYO) is not None


def test_added_site_earns_tokens_through_locality():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)

    def app():
        deployment.add_site(TOKYO, TOKYO_LATENCIES)
        yield env.timeout(20000.0)
        client = deployment.client(TOKYO, request_timeout_ms=30000.0)
        yield client.connect()
        yield client.create("/tokyo-data", b"0")
        yield client.set_data("/tokyo-data", b"1")
        yield env.timeout(2000.0)
        start = env.now
        yield client.set_data("/tokyo-data", b"2")
        return env.now - start

    latency = run_app(env, app(), timeout_ms=600000.0)
    assert latency < 10.0  # token migrated to the brand-new site
    assert "/tokyo-data" in deployment.site_leader(TOKYO).site_tokens.owned


def test_added_site_costs_what_the_founders_do():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, processing_delay_ms=0.5)
    added = deployment.add_site(TOKYO, TOKYO_LATENCIES)
    assert [server.config.processing_delay_ms for server in added] == [0.5] * 3


def test_add_site_validation():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    with pytest.raises(ValueError):
        deployment.add_site(CALIFORNIA, TOKYO_LATENCIES)
    with pytest.raises(ValueError):
        deployment.add_site(TOKYO, {VIRGINIA: 85.0})  # missing latencies


def test_pin_token_moves_ownership_without_access():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/pinned", b"x")
        yield env.timeout(500.0)
        deployment.pin_token("/pinned", FRANKFURT)
        yield env.timeout(3000.0)
        return True

    run_app(env, app())
    assert "/pinned" in deployment.site_leader(FRANKFURT).site_tokens.owned
    assert deployment.hub_leader.hub_tokens.where("/pinned") == FRANKFURT


def test_pin_token_back_to_hub():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/roamer", b"0")
        yield client.set_data("/roamer", b"1")  # migrates to California
        yield env.timeout(500.0)
        assert "/roamer" in deployment.site_leader(CALIFORNIA).site_tokens.owned
        deployment.pin_token("/roamer", VIRGINIA)  # recall home
        yield env.timeout(3000.0)
        return True

    run_app(env, app())
    assert deployment.hub_leader.hub_tokens.at_hub("/roamer")
    assert "/roamer" not in deployment.site_leader(CALIFORNIA).site_tokens.owned


def test_pinned_token_enables_local_writes_at_target():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    admin = deployment.client(VIRGINIA)
    fr = deployment.client(FRANKFURT)

    def app():
        yield admin.connect()
        yield fr.connect()
        yield admin.create("/fr-home", b"x")
        yield env.timeout(500.0)
        deployment.pin_token("/fr-home", FRANKFURT)
        yield env.timeout(3000.0)
        start = env.now
        yield fr.set_data("/fr-home", b"local!")
        return env.now - start

    latency = run_app(env, app())
    assert latency < 10.0


def test_assign_token_rejected_on_non_hub():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    leader = deployment.site_leader(CALIFORNIA)
    with pytest.raises(RuntimeError):
        leader.assign_token("/x", FRANKFURT)


def test_initial_tokens_pinned_to_hub_site_serve_without_deadlock():
    """A build-time pin to the hub's own site normalizes to hub-held.

    The l2/hub ensemble *is* that site's ensemble, so "owned by the hub's
    site" and "home at the hub" are the same state; before normalization
    such a pin wedged every write to the key (the hub waited forever on a
    recall from a site leader that is itself). Found by the fuzzer.
    """
    env, topo, net = fresh_world()
    deployment = wankeeper(
        env, net, topo, initial_tokens={"/hub-pinned": VIRGINIA}
    )
    assert deployment.hub_leader.hub_tokens.at_hub("/hub-pinned")
    local = deployment.client(VIRGINIA)
    remote = deployment.client(FRANKFURT)

    def app():
        yield local.connect()
        yield remote.connect()
        yield local.create("/hub-pinned", b"0")
        yield remote.set_data("/hub-pinned", b"1")
        yield env.timeout(3000.0)
        return True

    run_app(env, app(), timeout_ms=120000.0)
    fingerprints = {s.tree.fingerprint() for s in deployment.servers}
    assert len(fingerprints) == 1


def test_pin_away_then_back_to_hub_site_keeps_serving():
    """Round-trip a token remote -> hub-site and keep writing throughout;
    exercises the hub's self-recall short-circuit (no WAN hop to itself)."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/roundtrip", b"0")
        yield env.timeout(500.0)
        deployment.pin_token("/roundtrip", FRANKFURT)
        yield env.timeout(3000.0)
        deployment.pin_token("/roundtrip", VIRGINIA)  # the hub's own site
        yield env.timeout(3000.0)
        yield client.set_data("/roundtrip", b"1")
        yield env.timeout(2000.0)
        return True

    run_app(env, app(), timeout_ms=120000.0)
    assert deployment.hub_leader.hub_tokens.at_hub("/roundtrip")
    assert (
        "/roundtrip"
        not in deployment.site_leader(FRANKFURT).site_tokens.owned
    )


def test_pin_queued_behind_a_write_leaves_one_owner():
    """A write waiting at the hub ahead of a pin on the same key must not
    be granted the key by the migration policy: the pin's forced grant
    followed in the same pump, and two sites applied a grant of one token
    (the sentinel's single-token-ownership trip on a quorum hub)."""
    from repro.wankeeper.policy import AlwaysMigratePolicy

    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, policy_factory=AlwaysMigratePolicy)
    owner = deployment.client(FRANKFURT)
    writer = deployment.client(CALIFORNIA)

    def app():
        yield owner.connect()
        yield writer.connect()
        yield owner.create("/contested", b"0")  # token migrates to Frankfurt
        yield env.timeout(500.0)
        hub = deployment.hub_leader
        assert hub.hub_tokens.where("/contested") == FRANKFURT
        recalled = hub.tokens_recalled
        write = writer.set_data("/contested", b"1")
        yield env.timeout(50.0)  # the write is parked at the hub by now
        deployment.pin_token("/contested", FRANKFURT)
        assert len(hub._hub.queue) == 2
        yield write
        yield env.timeout(3000.0)
        return hub.tokens_recalled - recalled

    assert run_app(env, app(), timeout_ms=120000.0) == 1
    assert deployment.hub_leader.hub_tokens.where("/contested") == FRANKFURT
    assert "/contested" in deployment.site_leader(FRANKFURT).site_tokens.owned
    assert (
        "/contested"
        not in deployment.site_leader(CALIFORNIA).site_tokens.owned
    )


def test_plain_create_of_a_sequential_looking_path_takes_the_bulk_token():
    """A create and a delete of one path need the same token.

    ``/q/x0000000001`` looks sequential, so a delete or set of it takes
    ``/q``'s bulk token. A plain create of it once took the path's own
    token instead: with ``/q`` pinned to California and the path's own
    token to Frankfurt, both sites admitted their write locally, and
    Frankfurt applied California's delete as ``ok`` while California had
    answered ``no_node`` (the sentinel's reply-coherence trip).
    """
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo)
    admin = deployment.client(VIRGINIA)
    fr = deployment.client(FRANKFURT)
    ca = deployment.client(CALIFORNIA)
    path = "/q/x0000000001"

    def app():
        yield admin.connect()
        yield fr.connect()
        yield ca.connect()
        yield admin.create("/q", b"")
        yield env.timeout(500.0)
        deployment.pin_token("/q", CALIFORNIA)
        deployment.pin_token(path, FRANKFURT)
        yield env.timeout(3000.0)
        create = fr.create(path, b"x")
        delete = ca.delete(path)
        yield create
        try:
            yield delete
            outcome = "ok"
        except NoNodeError:
            outcome = "no_node"
        yield env.timeout(3000.0)
        return outcome

    # California holds /q, so its delete commits locally before
    # Frankfurt's create is serialized at the hub.
    assert run_app(env, app(), timeout_ms=120000.0) == "no_node"
    assert path in deployment.site_leader(CALIFORNIA).tree
    fingerprints = {s.tree.fingerprint() for s in deployment.servers}
    assert len(fingerprints) == 1
