"""End-to-end tests for the coordination service over the simulated WAN."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.zk import (
    NoNodeError,
    NodeExistsError,
    SessionExpiredError,
    WatchType,
)

from tests.support import fresh_world, plain_zk, run_app, zk_with_observers


def test_client_connect_and_crud():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        path = yield client.create("/app", b"v1")
        assert path == "/app"
        data, stat = yield client.get_data("/app")
        assert data == b"v1" and stat.version == 0
        stat = yield client.set_data("/app", b"v2")
        assert stat.version == 1
        yield client.delete("/app")
        exists = yield client.exists("/app")
        assert exists is None
        return "done"

    assert run_app(env, app()) == "done"


def test_api_errors_propagate_to_client():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        with pytest.raises(NoNodeError):
            yield client.get_data("/missing")
        yield client.create("/dup")
        with pytest.raises(NodeExistsError):
            yield client.create("/dup")
        return True

    assert run_app(env, app())


def test_remote_write_latency_plain_zk_is_two_wan_rtts():
    """Paper §IV-A: plain ZK writes from a remote region take ~2 RTTs."""
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        start = env.now
        yield client.create("/from-ca", b"x")
        return env.now - start

    latency = run_app(env, app())
    rtt = topo.rtt(VIRGINIA, CALIFORNIA)
    assert latency >= 2 * rtt - 5.0
    assert latency < 3 * rtt


def test_remote_write_latency_with_observers_is_one_wan_rtt():
    """Paper §IV-A: observers cut remote writes to ~1 RTT."""
    env, topo, net = fresh_world()
    deployment = zk_with_observers(env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        start = env.now
        yield client.create("/from-ca", b"x")
        return env.now - start

    latency = run_app(env, app())
    rtt = topo.rtt(VIRGINIA, CALIFORNIA)
    assert latency >= rtt - 5.0
    assert latency < 1.7 * rtt


def test_local_reads_are_fast_everywhere():
    env, topo, net = fresh_world()
    deployment = zk_with_observers(env, net, topo)
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(FRANKFURT)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/shared", b"data")
        # Wait for replication to the Frankfurt observer.
        yield env.timeout(500.0)
        start = env.now
        data, _stat = yield reader.get_data("/shared")
        elapsed = env.now - start
        assert data == b"data"
        return elapsed

    elapsed = run_app(env, app())
    assert elapsed < 5.0  # local, no WAN hop


def test_watch_fires_on_data_change():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA)
    writer = deployment.client(VIRGINIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/watched", b"v0")
        yield watcher.get_data("/watched", watch=True)
        yield writer.set_data("/watched", b"v1")
        yield env.timeout(200.0)
        return list(watcher.watch_events)

    events = run_app(env, app())
    assert any(
        e.type == WatchType.NODE_DATA_CHANGED and e.path == "/watched"
        for e in events
    )


def test_watch_is_one_shot():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA)
    writer = deployment.client(VIRGINIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/once", b"0")
        yield watcher.get_data("/once", watch=True)
        yield writer.set_data("/once", b"1")
        yield writer.set_data("/once", b"2")
        yield env.timeout(300.0)
        return len(watcher.watch_events)

    assert run_app(env, app()) == 1


def test_child_watch_fires_on_create():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA)
    writer = deployment.client(VIRGINIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/group")
        yield watcher.get_children("/group", watch=True)
        yield writer.create("/group/member")
        yield env.timeout(200.0)
        return list(watcher.watch_events)

    events = run_app(env, app())
    assert any(
        e.type == WatchType.NODE_CHILDREN_CHANGED and e.path == "/group"
        for e in events
    )


def test_watch_works_across_wan_sites():
    env, topo, net = fresh_world()
    deployment = zk_with_observers(env, net, topo)
    watcher = deployment.client(FRANKFURT)
    writer = deployment.client(CALIFORNIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/xsite", b"0")
        yield env.timeout(500.0)
        yield watcher.get_data("/xsite", watch=True)
        yield writer.set_data("/xsite", b"1")
        yield env.timeout(1000.0)
        return list(watcher.watch_events)

    events = run_app(env, app())
    assert any(e.type == WatchType.NODE_DATA_CHANGED for e in events)


def test_ephemeral_deleted_on_session_close():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    owner = deployment.client(VIRGINIA)
    other = deployment.client(VIRGINIA)

    def app():
        yield owner.connect()
        yield other.connect()
        yield owner.create("/live", b"", ephemeral=True)
        stat = yield other.exists("/live")
        assert stat is not None and stat.is_ephemeral
        yield owner.close()
        yield env.timeout(200.0)
        stat = yield other.exists("/live")
        return stat

    assert run_app(env, app()) is None


def test_ephemeral_deleted_on_session_expiry():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    owner = deployment.client(VIRGINIA, session_timeout_ms=1000.0)
    other = deployment.client(VIRGINIA)

    def app():
        yield owner.connect()
        yield other.connect()
        yield owner.create("/flaky", b"", ephemeral=True)
        owner.stop()  # heartbeats stop; session should expire server-side
        yield env.timeout(5000.0)
        stat = yield other.exists("/flaky")
        return stat

    assert run_app(env, app()) is None


def test_expired_session_rejected_on_next_op():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA, session_timeout_ms=500.0)

    def app():
        yield client.connect()
        # Suppress heartbeats by stopping, then restart-like direct submit.
        session = client.session_id
        yield env.timeout(3000.0)  # heartbeater keeps it alive...
        return session

    # Instead: expire by stopping the heartbeater.
    def app2():
        yield client.connect()
        client._heartbeater.stop()
        yield env.timeout(3000.0)
        with pytest.raises(SessionExpiredError):
            yield client.create("/nope")
        return True

    assert run_app(env, app2())


def test_sequential_create_via_client():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/q")
        first = yield client.create("/q/item-", sequential=True)
        second = yield client.create("/q/item-", sequential=True)
        return first, second

    first, second = run_app(env, app())
    assert first == "/q/item-0000000000"
    assert second == "/q/item-0000000001"


def test_multi_via_client():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        from repro.zk import CreateOp, SetDataOp

        results = yield client.multi(
            [CreateOp("/m", b"0"), SetDataOp("/m", b"1")]
        )
        data, _ = yield client.get_data("/m")
        return results, data

    results, data = run_app(env, app())
    assert results[0] == "/m"
    assert data == b"1"


def test_replicas_converge_to_identical_trees():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        for i in range(10):
            yield client.create(f"/n{i}", str(i).encode())
        yield client.set_data("/n3", b"updated")
        yield client.delete("/n7")
        yield env.timeout(2000.0)  # let replication settle
        return True

    run_app(env, app())
    fingerprints = set(deployment.tree_fingerprints().values())
    assert len(fingerprints) == 1


def test_leader_crash_write_survives_via_server_retry():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(CALIFORNIA, request_timeout_ms=3000.0)

    def app():
        yield client.connect()
        yield client.create("/before", b"x")
        deployment.site_leader(VIRGINIA).crash()
        # The accepting server's forward dies with the leader, but the
        # server re-routes the in-flight write once a new leader is
        # elected — the client never observes the crash.
        yield client.create("/during", b"y")
        yield client.create("/after", b"z")
        stat_during = yield client.exists("/during")
        stat_after = yield client.exists("/after")
        return stat_during is not None and stat_after is not None

    assert run_app(env, app())


def test_read_your_writes_same_client():
    env, topo, net = fresh_world()
    deployment = zk_with_observers(env, net, topo)
    client = deployment.client(FRANKFURT)

    def app():
        yield client.connect()
        yield client.create("/ryw", b"mine")
        data, _ = yield client.get_data("/ryw")
        return data

    assert run_app(env, app()) == b"mine"


def test_sync_then_read_sees_recent_write():
    env, topo, net = fresh_world()
    deployment = zk_with_observers(env, net, topo)
    writer = deployment.client(CALIFORNIA)
    reader = deployment.client(FRANKFURT)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/synced", b"v")
        yield reader.sync()
        data, _ = yield reader.get_data("/synced")
        return data

    assert run_app(env, app()) == b"v"
