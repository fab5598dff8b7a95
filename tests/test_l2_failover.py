"""Level-2 site failover (paper §II-D: "flexible level-2 site").

When the whole hub site becomes unreachable, the remaining site leaders
elect (majority of sites) a deterministic successor, whose leader promotes
itself to level-2; sites re-point, token inventories reconcile, and
cross-site traffic resumes. When the old hub site reconnects it demotes
itself and converges onto the new hub's history.
"""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper.messages import WanWelcome
from repro.zk.errors import BadVersionError

from tests.support import fresh_world, run_app


def wankeeper_with_failover(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(
        env, net, topo, enable_l2_failover=True, **kwargs
    )
    deployment.start()
    deployment.stabilize()
    return deployment


def kill_site(deployment, site):
    for server in deployment.by_site[site]:
        server.crash()


def partition_site(net, site, others):
    for other in others:
        net.partition(site, other)


def test_successor_is_deterministic():
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    leader = deployment.site_leader(CALIFORNIA)
    # Sites: california, frankfurt, virginia; hub = virginia.
    assert leader._failover.successor_site() == CALIFORNIA


def test_hub_site_crash_promotes_successor():
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    client = deployment.client(FRANKFURT, request_timeout_ms=60000.0)

    def app():
        yield client.connect()
        yield client.create("/pre", b"x")
        kill_site(deployment, VIRGINIA)
        yield env.timeout(40000.0)  # detection + votes + promotion
        assert deployment.current_l2_site == CALIFORNIA
        new_hub = deployment.hub_leader
        assert new_hub is not None and new_hub.site == CALIFORNIA
        # Cross-site writes flow again through the new hub.
        yield client.create("/post", b"y")
        data, _ = yield client.get_data("/post")
        return data

    assert run_app(env, app(), timeout_ms=600000.0) == b"y"


def test_promotion_preserves_migrated_tokens_via_inventory():
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    fr = deployment.client(FRANKFURT, request_timeout_ms=60000.0)

    def app():
        yield fr.connect()
        yield fr.create("/fr-token", b"0")
        yield fr.set_data("/fr-token", b"1")  # token -> Frankfurt
        yield env.timeout(500.0)
        kill_site(deployment, VIRGINIA)
        yield env.timeout(40000.0)
        new_hub = deployment.hub_leader
        assert new_hub.site == CALIFORNIA
        # Wait for Frankfurt's inventory heartbeat to reconcile.
        yield env.timeout(5000.0)
        return new_hub.hub_tokens.where("/fr-token")

    assert run_app(env, app(), timeout_ms=600000.0) == FRANKFURT


def test_a_token_granted_past_the_successor_comes_home_after_promotion():
    """The old hub's last grant of a key reached the owning site but not
    the successor, so the new hub counts one grant fewer than the site
    does. The site's return names the newer grant; the new hub must take
    it, or the key never comes home and writes that need it hang."""
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    fr = deployment.client(FRANKFURT, request_timeout_ms=60000.0)
    va = deployment.client(VIRGINIA, request_timeout_ms=60000.0)
    ca = deployment.client(CALIFORNIA, request_timeout_ms=60000.0)

    def app():
        yield fr.connect()
        yield va.connect()
        yield ca.connect()
        yield fr.create("/k", b"0")
        for _ in range(3):
            yield fr.set_data("/k", b"fr")  # grant 1 -> Frankfurt
        yield env.timeout(500.0)
        yield va.set_data("/k", b"va")  # recalled: Frankfurt returns it
        yield env.timeout(500.0)
        yield fr.set_data("/k", b"fr")  # first of two accesses
        yield env.timeout(500.0)
        # The second access carries grant 2. It reaches Frankfurt but
        # never the successor; it fails, so the trees stay equal.
        net.partition_one_way(VIRGINIA, CALIFORNIA)
        try:
            yield fr.set_data("/k", b"fr", version=999)
        except BadVersionError:
            pass
        yield env.timeout(500.0)
        assert "/k" in deployment.site_leader(FRANKFURT).site_tokens.owned
        kill_site(deployment, VIRGINIA)
        net.heal_all()
        yield env.timeout(45000.0)
        new_hub = deployment.hub_leader
        assert new_hub.site == CALIFORNIA
        assert new_hub.hub_tokens.where("/k") == FRANKFURT
        site_count = deployment.site_leader(FRANKFURT)._grant_counts[("/k", FRANKFURT)]
        assert new_hub._grant_counts[("/k", FRANKFURT)] < site_count
        yield ca.set_data("/k", b"ca")  # recall, return, serialize
        data, _ = yield ca.get_data("/k")
        return data

    assert run_app(env, app(), timeout_ms=600000.0) == b"ca"


def test_local_writes_never_stop_during_failover():
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    fr = deployment.client(FRANKFURT, request_timeout_ms=60000.0)

    def app():
        yield fr.connect()
        yield fr.create("/always-on", b"0")
        yield fr.set_data("/always-on", b"1")  # token -> Frankfurt
        yield env.timeout(500.0)
        kill_site(deployment, VIRGINIA)
        latencies = []
        for i in range(10):
            start = env.now
            yield fr.set_data("/always-on", f"during-{i}".encode())
            latencies.append(env.now - start)
            yield env.timeout(2000.0)
        return latencies

    latencies = run_app(env, app(), timeout_ms=600000.0)
    # Every write during the outage+failover window committed locally.
    assert all(latency < 10.0 for latency in latencies)


def test_old_hub_demotes_and_converges_after_partition_heals():
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    client = deployment.client(FRANKFURT, request_timeout_ms=60000.0)

    def app():
        yield client.connect()
        yield client.create("/before-split", b"x")
        yield env.timeout(2000.0)
        # Partition the hub site away (servers stay alive).
        partition_site(net, VIRGINIA, (CALIFORNIA, FRANKFURT))
        yield env.timeout(40000.0)
        assert deployment.current_l2_site == CALIFORNIA
        yield client.create("/during-split", b"y")
        yield env.timeout(2000.0)
        net.heal_all()
        # Old hub hears L2Promoted, demotes, and catches up via replay.
        yield env.timeout(40000.0)
        return True

    run_app(env, app(), timeout_ms=600000.0)
    for server in deployment.by_site[VIRGINIA]:
        assert server.current_l2_site == CALIFORNIA
        assert server.tree.node("/during-split") is not None, server.name
    # All live replicas converge.
    fingerprints = {
        s.name: s.tree.fingerprint() for s in deployment.servers if s.is_alive
    }
    assert len(set(fingerprints.values())) == 1, fingerprints


def test_no_promotion_when_hub_leader_merely_reelects():
    """An intra-site hub leader change must not trigger promotion."""
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=60000.0)

    def app():
        yield client.connect()
        yield client.create("/steady", b"x")
        hub = deployment.hub_leader
        hub.crash()
        yield env.timeout(30000.0)
        return deployment.current_l2_site

    assert run_app(env, app(), timeout_ms=600000.0) == VIRGINIA


def test_failover_disabled_by_default():
    env, topo, net = fresh_world()
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    kill_site(deployment, VIRGINIA)
    env.run(until=env.now + 60000.0)
    # No promotion without the opt-in flag.
    live = [s for s in deployment.servers if s.is_alive]
    assert all(s.current_l2_site == VIRGINIA for s in live)


def test_late_welcome_from_demoted_hub_does_not_repoint_a_site():
    """A WanWelcome in flight while the WanEpochOp commits must be dropped
    like every other message from a demoted hub, or the site's WanSubmits
    go to a server that may still believe it is level-2."""
    env, topo, net = fresh_world()
    deployment = wankeeper_with_failover(env, net, topo)
    old_hub = deployment.hub_leader
    partition_site(net, VIRGINIA, (CALIFORNIA, FRANKFURT))
    env.run(until=env.now + 40000.0)
    assert deployment.current_l2_site == CALIFORNIA
    leader = deployment.site_leader(FRANKFURT)
    assert leader._l2_addr.site == CALIFORNIA
    pointed_at = leader._l2_addr

    leader._on_client_message(
        old_hub.client_addr, WanWelcome(old_hub.client_addr)
    )
    assert leader._l2_addr == pointed_at
    # ... nor does it count as a sign of life from the hub.
    env.run(until=env.now + 1000.0)
    stamp = leader._failover.last_hub_contact
    leader._on_client_message(
        old_hub.client_addr, WanWelcome(old_hub.client_addr)
    )
    assert leader._failover.last_hub_contact == stamp
