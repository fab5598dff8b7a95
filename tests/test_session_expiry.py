"""Session-expiry edge cases.

Two latent bugs pinned here:

1. the documented session timeout is an *inclusive* bound — a heartbeat
   landing exactly ``timeout_ms`` after the last one must keep the session
   alive (``SessionTracker.expired_sessions`` uses a strict ``>``);
2. expiry firing while a client-initiated ``CloseSessionOp`` is still in
   flight must not submit a second close (``ZkServer._closing`` guard) —
   double-committing the teardown re-runs ephemeral deletion and watch
   teardown under a session id that may have been reused.
"""

from repro.net import VIRGINIA
from repro.zk.ops import CloseSessionOp
from repro.zk.sessions import SessionTracker

from tests.support import fresh_world, plain_zk, run_app


# -- 1. inclusive timeout bound ----------------------------------------------


def test_heartbeat_exactly_at_timeout_keeps_session_alive():
    tracker = SessionTracker("srv")
    session = tracker.create(client="c", timeout_ms=1000.0, now=0.0)
    # Exactly at the bound: still alive (inclusive), so not expired...
    assert tracker.expired_sessions(now=1000.0) == []
    # ...and a heartbeat landing at that instant is accepted.
    assert tracker.touch(session.session_id, now=1000.0)
    assert tracker.expired_sessions(now=2000.0) == []
    # Strictly past the bound: expired.
    assert tracker.expired_sessions(now=2000.0001) == [session]


def test_expired_session_rejects_heartbeat():
    tracker = SessionTracker("srv")
    session = tracker.create(client="c", timeout_ms=1000.0, now=0.0)
    tracker.mark_expired(session.session_id)
    assert not tracker.touch(session.session_id, now=100.0)


def test_find_by_client_returns_newest_live_session():
    tracker = SessionTracker("srv")
    first = tracker.create(client="c", timeout_ms=1000.0, now=0.0)
    second = tracker.create(client="c", timeout_ms=1000.0, now=10.0)
    # Newest wins, independent of scan order over the tracker's dict.
    assert tracker.find_by_client("c") is second
    tracker.mark_expired(second.session_id)
    assert tracker.find_by_client("c") is first


# -- 2. expiry racing an in-flight client close -------------------------------


def _count_close_submissions(server, counts):
    original = server.submit_system_txn

    def spy(op):
        if isinstance(op, CloseSessionOp):
            counts[op.session_id] = counts.get(op.session_id, 0) + 1
        return original(op)

    server.submit_system_txn = spy


def test_expiry_during_inflight_close_submits_no_duplicate():
    env, topo, net = fresh_world(seed=31)
    deployment = plain_zk(env, net, topo)
    leader = deployment.site_leader(VIRGINIA)
    counts = {}
    _count_close_submissions(leader, counts)
    client = deployment.client(VIRGINIA, session_timeout_ms=6000.0)

    def app():
        yield client.connect()
        session_id = client.session_id
        yield client.create("/eph", b"", ephemeral=True)
        # Client-initiated close: accepted by the leader (which marks the
        # session as closing) but the commit is still in flight across the
        # WAN quorum when expiry fires.
        close_event = client.close()
        yield env.timeout(5.0)
        leader._expire_session(session_id)
        try:
            yield close_event
        except Exception:
            pass  # the expiry notice may beat the close reply
        yield env.timeout(5000.0)
        return session_id

    session_id = run_app(env, app())
    # The server-side expiry must not have stacked a second close on top
    # of the client's in-flight one.
    assert counts.get(session_id, 0) == 0, counts
    session = leader.sessions.get(session_id)
    assert session is None or session.expired
    # The single committed close still tears the ephemeral down everywhere.
    for server in deployment.servers:
        assert server.tree.exists("/eph") is None


def test_expiry_without_inflight_close_submits_exactly_one():
    env, topo, net = fresh_world(seed=33)
    deployment = plain_zk(env, net, topo)
    leader = deployment.site_leader(VIRGINIA)
    counts = {}
    _count_close_submissions(leader, counts)
    client = deployment.client(VIRGINIA, session_timeout_ms=6000.0)

    def app():
        yield client.connect()
        session_id = client.session_id
        yield client.create("/eph2", b"", ephemeral=True)
        leader._expire_session(session_id)
        yield env.timeout(5000.0)
        return session_id

    session_id = run_app(env, app())
    assert counts.get(session_id, 0) == 1, counts
    for server in deployment.servers:
        assert server.tree.exists("/eph2") is None


# -- 3. session ids across server restarts ------------------------------------


def test_session_ids_stay_unique_across_server_restart():
    """A reborn server must not mint session ids its previous incarnation
    already used: the reply cache is rebuilt from the replayed log, so a
    reused (session, cxid) pair would have the new session's first writes
    answered from the dead session's cached replies — acked, never applied.
    """
    from repro.net import CALIFORNIA

    env, topo, net = fresh_world(seed=35)
    deployment = plain_zk(env, net, topo)
    server = deployment.server_at(CALIFORNIA)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        first = client.session_id
        # Populate the replicated reply cache under this session's cxid 1.
        yield client.create("/unique", b"0")
        server.crash()
        yield env.timeout(500.0)
        server.restart()
        yield env.timeout(8000.0)  # rejoin and replay the durable log
        fresh = deployment.client(CALIFORNIA)
        yield fresh.connect_retrying(max_retries=8)
        assert fresh.session_id != first, fresh.session_id
        # The reborn session's first write (cxid 1, colliding with the old
        # session's create) must actually apply.
        yield fresh.set_data_retrying("/unique", b"1", max_retries=8)
        yield env.timeout(2000.0)
        data, _stat = yield fresh.get_data("/unique")
        assert data == b"1", data
        return True

    run_app(env, app())
