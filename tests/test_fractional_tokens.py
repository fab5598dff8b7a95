"""Tests for fractional read/write tokens (§VI) and strong read modes."""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.wankeeper import build_wankeeper_deployment
from repro.zk.errors import ConnectionLossError

from tests.support import fresh_world, run_app


def wankeeper(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


def test_forward_mode_reads_pay_wan_trip():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="forward")
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(CALIFORNIA)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/strong", b"v")
        yield env.timeout(1000.0)
        start = env.now
        data, _ = yield reader.get_data("/strong")
        assert data == b"v"
        return env.now - start

    latency = run_app(env, app())
    rtt = topo.rtt(VIRGINIA, CALIFORNIA)
    assert latency >= rtt - 5.0


def test_forward_mode_read_is_fresh():
    """A forwarded read returns the hub's latest value, not the stale
    local replica's."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="forward")
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(FRANKFURT)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/fresh", b"old")
        yield env.timeout(1000.0)
        yield writer.set_data("/fresh", b"new")
        # Immediately read from Frankfurt: its replica lags (~100 ms),
        # but the forwarded read is served by the hub.
        data, _ = yield reader.get_data("/fresh")
        return data

    assert run_app(env, app()) == b"new"


def test_fractional_first_read_remote_then_local():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="fractional")
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(CALIFORNIA)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/leased", b"v1")
        yield env.timeout(1000.0)
        start = env.now
        yield reader.get_data("/leased")
        first = env.now - start
        start = env.now
        data, _ = yield reader.get_data("/leased")
        second = env.now - start
        return first, second, data

    first, second, data = run_app(env, app())
    rtt = topo.rtt(VIRGINIA, CALIFORNIA)
    assert first >= rtt - 5.0      # lease acquisition pays the WAN trip
    assert second < 5.0            # served from the lease cache
    assert data == b"v1"


def test_fractional_write_invalidates_leases():
    """§VI: a write needs all read tokens back — and afterwards readers
    see the new value, never the stale cache."""
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="fractional")
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(CALIFORNIA)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/inval", b"v1")
        yield env.timeout(1000.0)
        data, _ = yield reader.get_data("/inval")   # acquires lease
        assert data == b"v1"
        yield writer.set_data("/inval", b"v2")      # must invalidate lease
        data, _ = yield reader.get_data("/inval")   # re-fetch from hub
        return data

    assert run_app(env, app()) == b"v2"


def test_fractional_write_latency_includes_invalidation():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="fractional")
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(CALIFORNIA)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/cost", b"v1")
        yield env.timeout(1000.0)
        yield reader.get_data("/cost")  # CA server now holds a lease
        start = env.now
        yield writer.set_data("/cost", b"v2")
        return env.now - start

    latency = run_app(env, app())
    # The write must wait for the invalidation round trip to California.
    assert latency >= topo.rtt(VIRGINIA, CALIFORNIA) - 5.0


def test_fractional_site_with_write_token_reads_locally():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="fractional")
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/own", b"0")
        yield client.set_data("/own", b"1")  # token migrates to CA
        yield env.timeout(500.0)
        start = env.now
        data, _ = yield client.get_data("/own")
        return env.now - start, data

    latency, data = run_app(env, app())
    assert latency < 5.0
    assert data == b"1"


def test_lease_expires_as_liveness_backstop():
    env, topo, net = fresh_world()
    deployment = wankeeper(
        env, net, topo, read_mode="fractional", read_lease_ms=500.0
    )
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(CALIFORNIA)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/expiry", b"v1")
        yield env.timeout(1000.0)
        yield reader.get_data("/expiry")  # lease for 500 ms
        yield env.timeout(1000.0)         # lease expired
        start = env.now
        yield reader.get_data("/expiry")
        return env.now - start

    latency = run_app(env, app())
    assert latency >= topo.rtt(VIRGINIA, CALIFORNIA) - 5.0  # re-fetched


def test_bad_read_mode_rejected():
    env, topo, net = fresh_world()
    with pytest.raises(ValueError):
        build_wankeeper_deployment(env, net, topo, read_mode="psychic")


def test_forward_mode_missing_node_error():
    env, topo, net = fresh_world()
    deployment = wankeeper(env, net, topo, read_mode="forward")
    reader = deployment.client(CALIFORNIA)

    def app():
        from repro.zk import NoNodeError

        yield reader.connect()
        with pytest.raises(NoNodeError):
            yield reader.get_data("/nothing")
        return True

    assert run_app(env, app())


def test_forwarded_reads_leave_no_pending_entry_behind_on_a_lossy_wan():
    """A forwarded read whose request or grant is lost must not strand its
    bookkeeping: the client's retry re-asks under the entry it already has,
    and whatever the client gave up on is aged out by the tick."""
    env, topo, net = fresh_world(seed=5)
    deployment = wankeeper(env, net, topo, read_mode="forward")
    writer = deployment.client(VIRGINIA)
    reader = deployment.client(CALIFORNIA, request_timeout_ms=600.0)
    server = deployment.server_at(CALIFORNIA)

    def app():
        yield writer.connect()
        yield reader.connect()
        yield writer.create("/lossy", b"v")
        yield env.timeout(1000.0)
        lossy = LinkProfile(loss=0.3)
        net.degrade(VIRGINIA, CALIFORNIA, lossy)
        net.degrade(CALIFORNIA, VIRGINIA, lossy)
        served = 0
        for _ in range(150):
            data, _stat = yield reader.get_data_retrying("/lossy", max_retries=20)
            served += data == b"v"
        # Reads the client gives up on: only the tick can clear these.
        net.partition(VIRGINIA, CALIFORNIA)
        abandoned = 0
        for _ in range(5):
            try:
                yield reader.get_data("/lossy")
            except ConnectionLossError:
                abandoned += 1
        stranded = len(server._reads.pending)
        net.heal_all()
        net.restore_all()
        yield env.timeout(60000.0)
        return served, abandoned, stranded

    assert run_app(env, app()) == (150, 5, 5)
    reads = server._reads
    # Some requests really were retried (the scenario reaches the bug),
    # each under its first request id ...
    assert reader.retries_performed > 20
    assert reads.request_counter == 155
    # ... and nothing is left behind.
    assert len(reads.pending) == 0 and len(reads.request_of) == 0
