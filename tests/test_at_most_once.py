"""At-most-once request hardening: reply cache, stable-cxid retries.

ZooKeeper-style exactly-once-per-request semantics: every replica records
each committed ``(session_id, cxid)`` in ``apply_counts``, duplicate
commits are suppressed at the apply layer on every replica, and client
retries reuse the cxid of the first attempt so a timed-out-but-committed
write is answered from the stored reply of the accepting server — the only
one that keeps the reply itself — instead of being applied a second time.
"""

import pytest

from repro.invariants import InvariantViolation
from repro.net import CALIFORNIA, VIRGINIA, LinkProfile
from repro.zk import ConnectionLossError, NodeExistsError, SetDataOp
from repro.zk import deployment as zk_deployment
from repro.zk.ops import Txn
from repro.zk.protocol import OpReply, OpRequest

from tests.reference_at_most_once import NoAtMostOnceZkServer
from tests.support import fresh_world, plain_zk, run_app


def bound_server(deployment, client):
    return next(
        s for s in deployment.servers if s.client_addr == client.server_addr
    )


def test_duplicate_request_answered_from_reply_cache():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    server = bound_server(deployment, client)

    sent, replies = [], []

    def tap(envelope):
        if isinstance(envelope.body, OpRequest):
            sent.append(envelope.body)
        elif isinstance(envelope.body, OpReply) and envelope.dst == client.addr:
            replies.append(envelope.body)

    net.tap(tap)

    def app():
        yield client.connect()
        yield client.create("/cached", b"v0")
        first = yield client.set_data("/cached", b"v1")
        # Re-send the exact same request (a retry after a lost reply).
        net.send(client.addr, client.server_addr, sent[-1])
        yield env.timeout(500.0)
        second = replies[-1].value
        _data, stat = yield client.get_data("/cached")
        return first, second, stat

    first, second, stat = run_app(env, app())
    assert [reply.cxid for reply in replies] == [1, 2, 2, 3]
    assert first.version == second.version == 1
    assert stat.version == 1  # applied exactly once
    assert server.replies_from_cache == 1
    key = (client.session_id, 2)  # cxid 1 was the create
    assert server.apply_counts[key] == 1


def test_duplicate_route_suppressed_at_apply_layer():
    """Two committed copies of one txn (a re-routed in-flight write after
    a leader change) must apply once on every replica."""
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    leader = deployment.site_leader(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/twice", b"v0")
        txn = Txn(
            session_id=client.session_id,
            cxid=9999,
            origin=leader.client_addr,
            op=SetDataOp("/twice", b"v1"),
        )
        leader._route_write(txn)
        leader._route_write(txn)  # duplicate proposal of the same request
        yield env.timeout(2000.0)
        _data, stat = yield client.get_data("/twice")
        return stat

    stat = run_app(env, app())
    assert stat.version == 1
    for server in deployment.servers:
        assert server.apply_counts[(client.session_id, 9999)] == 1
        assert server.duplicate_commits_suppressed >= 1


def test_reply_cache_disabled_restores_double_apply(monkeypatch):
    """The regression the cache fixes: on servers without at-most-once, a
    duplicate committed txn applies twice (the seed repo's behavior), and
    the sentinel's no-double-apply check trips on it."""
    monkeypatch.setenv("REPRO_SENTINEL", "1")
    monkeypatch.setattr(zk_deployment, "ZkServer", NoAtMostOnceZkServer)
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    leader = deployment.site_leader(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/twice", b"v0")
        txn = Txn(
            session_id=client.session_id,
            cxid=9999,
            origin=leader.client_addr,
            op=SetDataOp("/twice", b"v1"),
        )
        leader._route_write(txn)
        leader._route_write(txn)
        yield env.timeout(2000.0)
        _data, stat = yield client.get_data("/twice")
        return stat

    with pytest.raises(InvariantViolation) as caught:
        run_app(env, app())
    assert caught.value.invariant == "no-double-apply"
    assert f"({client.session_id!r}, cxid=9999) 2 times" in caught.value.detail
    _data, stat = deployment.site_leader(VIRGINIA).tree.get_data("/twice")
    assert stat.version == 2  # applied twice: the at-most-once violation


def test_reply_cache_rebuilt_from_log_replay_on_restart():
    """After a restart the table holds every committed key once: Zab keeps
    it with the replica's state (it was rebuilt by replaying the log from
    zero before state transfer; tests/reference_replay.py still does)."""
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/durable", b"x")
        yield env.timeout(1000.0)  # replicate everywhere
        follower = next(
            s for s in deployment.servers if s.site == CALIFORNIA
        )
        follower.crash()
        yield env.timeout(500.0)
        follower.restart()
        yield env.timeout(3000.0)  # rejoin
        return follower

    follower = run_app(env, app())
    create_key = (client.session_id, 1)
    assert follower.apply_counts[create_key] == 1
    assert create_key not in follower._replies  # not the origin
    assert all(count == 1 for count in follower.apply_counts.values())


def test_retrying_write_survives_lossy_wan_without_double_apply():
    """Client-side stable-cxid retries + reply cache over a lossy WAN:
    every logical write applies exactly once even when requests time out
    and are retried."""
    env, topo, net = fresh_world(seed=5)
    deployment = plain_zk(env, net, topo)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=0.3))
    client = deployment.client(CALIFORNIA, request_timeout_ms=500.0)

    def app():
        yield client.connect_retrying()
        yield client.create_retrying("/lossy", b"")
        for i in range(12):
            yield client.set_data_retrying("/lossy", str(i).encode())
        yield env.timeout(3000.0)
        _data, stat = yield client.get_data_retrying("/lossy")
        return stat

    stat = run_app(env, app())
    assert client.retries_performed > 0  # loss actually provoked retries
    assert stat.version == 12  # create + 12 sets, each applied once
    for server in deployment.servers:
        assert all(count == 1 for count in server.apply_counts.values())


def test_old_fresh_cxid_retry_double_applies_without_cache():
    """Satellite regression: the seed's retry style (a new cxid per
    attempt, so the reply cache never recognises the retry) applies a
    timed-out-but-committed write twice."""
    env, topo, net = fresh_world(seed=5)
    deployment = plain_zk(env, net, topo)
    net.degrade(VIRGINIA, CALIFORNIA, LinkProfile(loss=0.3))
    client = deployment.client(CALIFORNIA, request_timeout_ms=500.0)

    def app():
        yield client.connect()
        for _attempt in range(8):
            try:
                yield client.create("/lossy", b"")
                break
            except ConnectionLossError:
                continue
            except NodeExistsError:
                break  # earlier attempt committed after all
        logical = 12
        for i in range(logical):
            for _attempt in range(8):
                try:
                    yield client.set_data("/lossy", str(i).encode())
                    break
                except ConnectionLossError:
                    continue
        yield env.timeout(3000.0)
        _data, stat = yield client.get_data("/lossy")
        return logical, stat

    logical, stat = run_app(env, app())
    assert stat.version > logical  # at least one write applied twice


def test_retry_layer_gives_up_after_max_retries():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA, request_timeout_ms=400.0)

    def app():
        yield client.connect()
        bound_server(deployment, client).crash()
        with pytest.raises(ConnectionLossError):
            yield client.set_data_retrying("/x", b"v", max_retries=2)
        return client.retries_performed

    assert run_app(env, app()) == 2


def test_api_errors_are_definitive_not_retried():
    env, topo, net = fresh_world()
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create_retrying("/exists")
        with pytest.raises(NodeExistsError):
            yield client.create_retrying("/exists")
        return client.retries_performed

    assert run_app(env, app()) == 0
