"""The replica apply path: keys everywhere, a reply only at the origin.

Every replica records every committed ``(session_id, cxid)`` in its one
at-most-once table, ``apply_counts`` (duplicate-commit suppression must be
identical everywhere), but the ``OpReply`` itself is built and kept only on
the server that accepted the write — the one server its client can hear
from. Every table stores the txn's own ``key`` tuple, so a write costs one
request id however many replicas apply it. These tests pin that as counts
and identities, not as host time: who holds which reply, how many replies
and ids stay alive, what a retry and a duplicate commit do, and the
``set_data`` apply that reuses one watch event per node.
"""

import gc
from types import SimpleNamespace

import pytest

from repro.invariants import InvariantSentinel, InvariantViolation
from repro.net import CALIFORNIA, VIRGINIA
from repro.wankeeper import build_wankeeper_deployment
from repro.zab.zxid import Zxid
from repro.zk import server as zk_server
from repro.zk.data_tree import ApplyOutcome, DataTree
from repro.zk.errors import BadVersionError, NoNodeError
from repro.zk.ops import CreateOp, DeleteOp, SetDataOp, Txn
from repro.zk.protocol import OpReply, OpRequest
from repro.zk.records import WatchType

from tests.support import fresh_world, plain_zk, run_app

WRITES = 12


def _deployment(stack, env, net, topo):
    if stack == "zk":
        return plain_zk(env, net, topo)
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    return deployment


def _bound_server(deployment, client):
    return next(
        s for s in deployment.servers if s.client_addr == client.server_addr
    )


def _live_replies():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is OpReply)


@pytest.mark.parametrize("stack", ["wk", "zk"])
def test_every_replica_keeps_the_key_only_the_origin_keeps_the_reply(stack):
    env, topo, net = fresh_world(seed=31)
    deployment = _deployment(stack, env, net, topo)
    client = deployment.client(CALIFORNIA)
    origin = _bound_server(deployment, client)
    counted = {}

    def app():
        yield client.connect()
        yield env.timeout(1000.0)
        counted["before"] = _live_replies()
        yield client.create("/k", b"0")
        for i in range(1, WRITES):
            yield client.set_data("/k", str(i).encode())
        yield env.timeout(3000.0)  # replicate everywhere
        counted["after"] = _live_replies()
        return True

    run_app(env, app())
    replicas = deployment.servers
    assert len(replicas) == (9 if stack == "wk" else 3)
    keys = {(client.session_id, cxid) for cxid in range(1, WRITES + 1)}
    for server in replicas:
        held = {k for k in server.apply_counts if k[0] == client.session_id}
        assert held == keys, server.name
    for key in sorted(keys):
        holders = [s for s in replicas if key in s._replies]
        assert holders == [origin], key
        assert isinstance(origin._replies[key], OpReply)
    # One retained reply per write, not one per write per replica.
    assert counted["after"] - counted["before"] == WRITES


def test_retry_at_the_origin_is_answered_from_the_cache():
    env, topo, net = fresh_world(seed=33)
    deployment = _deployment("wk", env, net, topo)
    client = deployment.client(CALIFORNIA)
    origin = _bound_server(deployment, client)
    sent, replies = [], []

    def tap(envelope):
        if isinstance(envelope.body, OpRequest):
            sent.append(envelope.body)
        elif isinstance(envelope.body, OpReply) and envelope.dst == client.addr:
            replies.append(envelope.body)

    net.tap(tap)

    def app():
        yield client.connect()
        yield client.create("/r", b"v0")
        first = yield client.set_data("/r", b"v1")
        net.send(client.addr, client.server_addr, sent[-1])  # the retry
        yield env.timeout(500.0)
        return first

    first = run_app(env, app())
    assert origin.replies_from_cache == 1
    assert [r.cxid for r in replies] == [1, 2, 2]
    assert replies[-1] is origin._replies[(client.session_id, 2)]
    assert replies[-1].value == first
    for server in deployment.servers:
        assert server.apply_counts[(client.session_id, 2)] == 1
        if server is not origin:
            assert server.replies_from_cache == 0


def test_duplicate_commit_of_a_follower_origin_txn_is_suppressed_everywhere():
    """The leader and the other follower store no reply for this txn; the
    duplicate is still suppressed on every replica, and nobody sends."""
    env, topo, net = fresh_world(seed=35)
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    leader = deployment.site_leader(VIRGINIA)
    follower = next(s for s in deployment.servers if s.site == CALIFORNIA)
    replies = []
    net.tap(lambda e: replies.append(e) if isinstance(e.body, OpReply) else None)

    def app():
        yield client.connect()
        yield client.create("/twice", b"v0")
        txn = Txn(
            session_id="elsewhere#1",
            cxid=7,
            origin=follower.client_addr,
            op=SetDataOp("/twice", b"v1"),
        )
        before = len(replies)
        leader._route_write(txn)
        leader._route_write(txn)
        yield env.timeout(2000.0)
        _data, stat = yield client.get_data("/twice")
        return before, stat

    before, stat = run_app(env, app())
    assert stat.version == 1
    key = ("elsewhere#1", 7)
    for server in deployment.servers:
        assert server.apply_counts[key] == 1
        assert server.duplicate_commits_suppressed >= 1
        assert (key in server._replies) == (server is follower)
    # The get_data reply (cxid 2) only: no server had a client waiting
    # for cxid 7.
    assert [e.body.cxid for e in replies[before:]] == [2]


def test_member_key_without_a_reply_fails_loudly_at_accept():
    env, topo, net = fresh_world(seed=37)
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/m", b"")
        yield env.timeout(1000.0)
        return True

    run_app(env, app())
    key = (client.session_id, 1)
    other = next(
        s for s in deployment.servers if s.client_addr != client.server_addr
    )
    assert key in other.apply_counts and key not in other._replies
    accepted = other.writes_accepted
    with pytest.raises(RuntimeError, match="no reply stored"):
        other._accept_write(
            client.addr, OpRequest(client.session_id, 1, CreateOp("/m", b""))
        )
    assert other.writes_accepted == accepted
    assert key not in other._inflight_txns
    assert key not in other._pending_writes


@pytest.mark.parametrize("first, diverging", [
    (ApplyOutcome(True, "/x"), ApplyOutcome(True, "/y")),
    (ApplyOutcome(False, error=NoNodeError("/x")),
     ApplyOutcome(False, error=BadVersionError("/x"))),
])
def test_diverging_outcomes_trip_reply_coherence(first, diverging):
    """Stub replicas, no network: the sentinel reads outcomes, not replies."""
    txn = Txn("s#1", 4, None, SetDataOp("/x", b"v"))
    sentinel = InvariantSentinel()
    for name in ("a", "b"):  # agreeing replicas are quiet
        host = SimpleNamespace(name=name)
        sentinel.on_apply(host, txn, first)
    with pytest.raises(InvariantViolation) as caught:
        host = SimpleNamespace(name="c")
        sentinel.on_apply(host, txn, diverging)
    assert caught.value.invariant == "reply-coherence"
    assert "cxid=4" in caught.value.detail


def test_set_data_reuses_the_node_watch_event():
    tree = DataTree()
    tree.apply(CreateOp("/n", b""), Zxid(1, 1), "s#1")
    first = tree.apply(SetDataOp("/n", b"a"), Zxid(1, 2), "s#1")
    second = tree.apply(SetDataOp("/n", b"bb"), Zxid(1, 3), "s#1")
    assert first.events[0] is second.events[0]
    assert first.events[0].type is WatchType.NODE_DATA_CHANGED
    assert first.events[0].path == "/n"
    # The Stat is rebuilt on each set, and is what a read sees.
    assert (first.value.version, second.value.version) == (1, 2)
    assert second.value.data_length == 2
    assert tree.get_data("/n")[1] is second.value
    # Deleted and re-created: a new node, a fresh event.
    tree.apply(DeleteOp("/n"), Zxid(1, 4), "s#1")
    tree.apply(CreateOp("/n", b""), Zxid(1, 5), "s#1")
    third = tree.apply(SetDataOp("/n", b"c"), Zxid(1, 6), "s#1")
    assert third.events[0] is not first.events[0]
    assert third.events[0] == first.events[0]


def test_watch_registered_between_two_sets_fires_once():
    env, topo, net = fresh_world(seed=39)
    deployment = plain_zk(env, net, topo)
    writer = deployment.client(VIRGINIA, name="writer")
    watcher = deployment.client(CALIFORNIA, name="watcher")

    def app():
        yield writer.connect()
        yield watcher.connect()
        yield writer.create("/w", b"0")
        yield writer.set_data("/w", b"1")
        yield env.timeout(1000.0)
        yield watcher.get_data("/w", watch=True)
        yield writer.set_data("/w", b"2")
        yield writer.set_data("/w", b"3")
        yield env.timeout(1000.0)
        return True

    run_app(env, app())
    assert len(watcher.watch_events) == 1
    event = watcher.watch_events[0]
    assert (event.type, event.path) == (WatchType.NODE_DATA_CHANGED, "/w")
    host = _bound_server(deployment, watcher)
    assert event is host.tree.node("/w")._data_changed[0]
    assert writer.watch_events == []
    for server in deployment.servers:
        assert not server.watches.has_watches


def test_apply_counts_evict_oldest_first_at_the_cap(monkeypatch):
    """One table, one bound: a key leaves apply_counts oldest first, and
    the origin's stored reply leaves with it."""
    limit = 4
    monkeypatch.setattr(zk_server, "REPLY_CACHE_LIMIT", limit)
    env, topo, net = fresh_world(seed=41)
    deployment = plain_zk(env, net, topo)
    client = deployment.client(VIRGINIA)
    origin = _bound_server(deployment, client)

    def app():
        yield client.connect()
        yield client.create("/c", b"")
        for i in range(WRITES - 1):
            yield client.set_data("/c", str(i).encode())
        yield env.timeout(1000.0)
        return True

    run_app(env, app())
    newest = [(client.session_id, cxid)
              for cxid in range(WRITES - limit + 1, WRITES + 1)]
    for server in deployment.servers:
        assert list(server.apply_counts) == newest
        assert max(server.apply_counts.values()) == 1
        assert list(server._replies) == (newest if server is origin else [])


# -- one request id per write ----------------------------------------------


def _logged_txns(server):
    """Every client Txn in the replica's log, unwrapped from its WanTxn."""
    return [getattr(entry.txn, "txn", entry.txn)
            for entry in server.peer.log]


def _member(table, key):
    """The key object a dict or set actually stores for ``key``."""
    return next(k for k in table if k == key)


@pytest.mark.parametrize("stack", ["wk", "zk"])
def test_every_table_holds_the_txns_own_key(stack):
    env, topo, net = fresh_world(seed=43)
    deployment = _deployment(stack, env, net, topo)
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/id", b"0")
        for i in range(1, WRITES):
            yield client.set_data("/id", str(i).encode())
        yield env.timeout(3000.0)  # replicate everywhere
        return True

    run_app(env, app())
    replicas = deployment.servers
    submit_tables = 0
    for cxid in range(1, WRITES + 1):
        key = (client.session_id, cxid)
        ids = set()
        for server in replicas:
            (txn,) = [t for t in _logged_txns(server) if t.key == key]
            assert _member(server.apply_counts, key) is txn.key, server.name
            if stack == "wk":
                assert _member(server._seen_wan_ids, key) is txn.key
            if key in server.peer._recent_submits:  # a leader's dedup table
                assert _member(server.peer._recent_submits, key) is txn.key
                submit_tables += 1
            ids.add(id(txn.key))
        # The Txn travels by reference: one tuple on every replica.
        assert len(ids) == 1, key
    assert submit_tables >= WRITES


def _live_request_ids(session_id):
    """Distinct ``(session_id, cxid)`` tuples any live object refers to.

    Tuples of a str and an int are untracked by the collector, so they
    are found through the tracked containers and records that hold them.
    """
    gc.collect()
    found = {}
    for obj in gc.get_objects():
        for ref in gc.get_referents(obj):
            if (type(ref) is tuple and len(ref) == 2
                    and type(ref[1]) is int and ref[0] == session_id):
                found[id(ref)] = ref
    return len(found)


def test_n_writes_leave_n_request_id_tuples_on_wk(monkeypatch):
    """Nine replicas, one tuple per write: about 21 per write before every
    table keyed by the txn's own ``key``. The sentinel keeps its own
    independent, unbounded tables, so it is off for this count."""
    monkeypatch.setenv("REPRO_SENTINEL", "0")
    writes = 40
    env, topo, net = fresh_world(seed=45)
    deployment = _deployment("wk", env, net, topo)
    client = deployment.client(CALIFORNIA)
    counted = {}

    def app():
        yield client.connect()
        yield client.create("/n", b"0")
        for i in range(1, writes):
            yield client.set_data("/n", str(i).encode())
        yield env.timeout(3000.0)  # replicate everywhere
        counted["live"] = _live_request_ids(client.session_id)
        return True

    run_app(env, app())
    assert len(deployment.servers) == 9
    assert writes <= counted["live"] <= writes + 4, counted
