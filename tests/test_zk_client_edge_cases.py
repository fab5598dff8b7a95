"""Edge cases in the client: timeouts, racing replies, watch waiters."""

import pytest

from repro.net import CALIFORNIA, VIRGINIA
from repro.sim import AnyOf
from repro.zk import ConnectionLossError
from repro.zk.protocol import SessionHeartbeat

from tests.support import fresh_world, plain_zk, run_app


def test_connect_timeout_when_server_down():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    server = deployment.server_at(CALIFORNIA)
    client = deployment.client(CALIFORNIA, request_timeout_ms=2000.0)
    server.crash()

    def app():
        with pytest.raises(ConnectionLossError):
            yield client.connect()
        return True

    assert run_app(env, app())


def test_double_connect_rejected_while_in_flight():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield env.timeout(1.0)
        client.connect()  # fire and don't wait
        with pytest.raises(RuntimeError):
            client.connect()
        return True

    assert run_app(env, app())


def test_op_without_connect_rejected():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    with pytest.raises(RuntimeError):
        client.create("/nope")


def test_late_reply_after_timeout_is_dropped():
    """A reply arriving after the client's timeout must not crash or
    corrupt later request correlation."""
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    # Timeout shorter than the WAN write latency: the reply always loses.
    client = deployment.client(CALIFORNIA, request_timeout_ms=50.0)

    def app():
        yield client.connect()
        with pytest.raises(ConnectionLossError):
            yield client.create("/slow", b"x")
        # The late reply lands meanwhile; subsequent ops still work.
        yield env.timeout(1000.0)
        client.request_timeout_ms = 10000.0
        stat = yield client.exists("/slow")
        return stat is not None

    # The write actually committed server-side even though the client
    # timed out (outcome-unknown semantics, as with real ZooKeeper).
    assert run_app(env, app())


def test_wait_watch_with_filter():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA)
    writer = deployment.client(VIRGINIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/a", b"")
        yield writer.create("/b", b"")
        yield watcher.get_data("/a", watch=True)
        yield watcher.get_data("/b", watch=True)
        waiter = watcher.wait_watch("/b")  # only /b
        yield writer.set_data("/a", b"x")  # fires /a watch -> not ours
        yield writer.set_data("/b", b"y")
        event = yield waiter
        return event.path

    assert run_app(env, app()) == "/b"


def test_wait_watch_any_path():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA)
    writer = deployment.client(VIRGINIA)

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/any", b"")
        yield watcher.get_data("/any", watch=True)
        waiter = watcher.wait_watch()
        yield writer.set_data("/any", b"x")
        event = yield waiter
        return event.path

    assert run_app(env, app()) == "/any"


def test_wait_watch_with_timeout_race():
    """AnyOf(wait_watch, timeout) is the recommended robust-wait pattern."""
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        result = yield AnyOf(
            env, [client.wait_watch("/never"), env.timeout(500.0, "timed-out")]
        )
        return list(result.values())

    assert run_app(env, app()) == ["timed-out"]


def test_client_metrics_count_ops():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/m", b"")
        yield client.get_data("/m")
        try:
            yield client.get_data("/missing")
        except Exception:
            pass
        return client.ops_completed, client.ops_failed

    completed, failed = run_app(env, app())
    assert completed == 2
    assert failed == 1


def test_stop_kills_heartbeats_and_pump():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    heartbeats = []
    net.tap(
        lambda envelope: type(envelope.body) is SessionHeartbeat
        and heartbeats.append(env.now)
    )

    def app():
        yield client.connect()
        yield env.timeout(client.session_timeout_ms)
        before = len(heartbeats)
        client.stop()
        yield env.timeout(client.session_timeout_ms)
        return before, len(heartbeats)

    # Three heartbeats per session timeout while alive, none once stopped.
    before, after = run_app(env, app())
    assert before >= 2 and after == before
