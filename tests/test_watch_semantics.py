"""Watch semantics checked against ZooKeeper's documented event table.

Three rows of the real table that are easy to get subtly wrong:

* an **exists** watch set on a *nonexistent* node fires ``NODE_CREATED``
  when the node appears (registering on a miss is the point of exists);
* a **children** watch on a parent fires ``NODE_CHILDREN_CHANGED`` when a
  *sequential* create lands under it (the child's generated name differs
  from the requested path — the parent watch must still fire);
* a **dying session's own watches die with it**: when the server applies
  the session's ``CloseSessionOp``, the ephemeral-deletion events must
  notify *other* watchers but never the dying session itself (real ZK
  drops the closing session's watch table before the delete side-effects
  run).
"""

from repro.net import VIRGINIA
from repro.zk.records import WatchType

from tests.support import fresh_world, plain_zk, run_app


def test_exists_watch_on_missing_node_fires_on_create():
    env, topo, net = fresh_world(seed=41)
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA, name="watcher")
    writer = deployment.client(VIRGINIA, name="writer")

    def app():
        yield watcher.connect()
        yield writer.connect()
        stat = yield watcher.exists("/later", watch=True)
        assert stat is None  # not there yet; the watch is still registered
        waiter = watcher.wait_watch("/later")
        yield writer.create("/later", b"v")
        event = yield waiter
        return event

    event = run_app(env, app())
    assert event.type is WatchType.NODE_CREATED
    assert event.path == "/later"


def test_child_watch_fires_for_sequential_create():
    env, topo, net = fresh_world(seed=43)
    deployment = plain_zk(env, net, topo)
    watcher = deployment.client(VIRGINIA, name="watcher")
    writer = deployment.client(VIRGINIA, name="writer")

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/queue", b"")
        children = yield watcher.get_children("/queue", watch=True)
        assert children == []
        waiter = watcher.wait_watch("/queue")
        created_path = yield writer.create(
            "/queue/item-", b"task", sequential=True
        )
        assert created_path.startswith("/queue/item-")
        assert created_path != "/queue/item-"  # a suffix was appended
        event = yield waiter
        return event

    event = run_app(env, app())
    assert event.type is WatchType.NODE_CHILDREN_CHANGED
    assert event.path == "/queue"


def test_dying_session_watches_do_not_see_own_teardown():
    """Client A watches its own ephemeral, client B watches it too. A's
    close must notify B (NODE_DELETED) but never A itself."""
    env, topo, net = fresh_world(seed=45)
    deployment = plain_zk(env, net, topo)
    owner = deployment.client(VIRGINIA, name="owner")
    observer = deployment.client(VIRGINIA, name="observer")

    def app():
        yield owner.connect()
        yield observer.connect()
        yield owner.create("/lock", b"", ephemeral=True)
        # Both sessions register a data watch on the ephemeral.
        yield owner.exists("/lock", watch=True)
        yield observer.exists("/lock", watch=True)
        waiter = observer.wait_watch("/lock")
        yield owner.close()  # commits CloseSessionOp -> deletes /lock
        event = yield waiter
        yield env.timeout(2000.0)  # time for any (wrong) notify to owner
        return event

    event = run_app(env, app())
    # The observer saw the deletion...
    assert event.type is WatchType.NODE_DELETED
    assert event.path == "/lock"
    # ...but the dying session never got a notification for its own
    # teardown: its watches were dropped before the delete was applied.
    assert owner.watch_events == []


def test_watch_not_delivered_to_expired_session():
    """A mutation applied after the server expired the watching session
    must not notify it (the session's watches are gone and the client has
    been told the session is dead)."""
    env, topo, net = fresh_world(seed=47)
    deployment = plain_zk(env, net, topo)
    leader = deployment.site_leader(VIRGINIA)
    watcher = deployment.client(VIRGINIA, name="watcher")
    writer = deployment.client(VIRGINIA, name="writer")

    def app():
        yield watcher.connect()
        yield writer.connect()
        yield writer.create("/node", b"v0")
        yield watcher.get_data("/node", watch=True)
        # The server expires the watcher's session (heartbeats lost in a
        # gray failure, say) *before* the mutation commits.
        leader._expire_session(watcher.session_id)
        yield writer.set_data("/node", b"v1")
        yield env.timeout(2000.0)
        return True

    assert run_app(env, app()) is True
    assert watcher.watch_events == []
