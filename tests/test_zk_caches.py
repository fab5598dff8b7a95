"""Read-behaviour tests for the znode tree and the watch manager.

Each znode caches its ``Stat`` record, which is only safe if every
mutation path invalidates it; these tests drive each mutation and then
golden-check the reads (Stat, sorted children, sorted paths, per-session
ephemerals, watch bookkeeping) against freshly computed values.
"""

from repro.zab import Zxid
from repro.zk import CreateOp, DataTree, DeleteOp, SetDataOp
from repro.zk.records import Stat, WatchEvent, WatchType
from repro.zk.watches import WatchManager


Z = Zxid


def apply(tree, op, counter=[0], session="s1"):
    counter[0] += 1
    return tree.apply(op, Z(1, counter[0]), session)


def fresh_stat(node):
    """What Znode.stat() computed before caching existed."""
    return Stat(
        czxid=node.czxid,
        mzxid=node.mzxid,
        pzxid=node.pzxid,
        version=node.version,
        cversion=node.cversion,
        data_length=len(node.data),
        num_children=len(node.children),
        ephemeral_owner=node.ephemeral_owner,
    )


# -- Znode stat cache ---------------------------------------------------------


def test_stat_cache_returns_identical_values():
    tree = DataTree()
    apply(tree, CreateOp("/a", b"hello"))
    node = tree.node("/a")
    assert node.stat() == fresh_stat(node)
    # Second read comes from the cache; must be the same object and value.
    assert node.stat() is node.stat()
    assert node.stat() == fresh_stat(node)


def test_set_data_invalidates_stat():
    tree = DataTree()
    apply(tree, CreateOp("/a", b"v0"))
    before = tree.exists("/a")
    apply(tree, SetDataOp("/a", b"longer-value", version=-1))
    after = tree.exists("/a")
    assert after != before
    assert after.version == 1
    assert after.data_length == len(b"longer-value")
    assert after == fresh_stat(tree.node("/a"))


def test_child_create_and_delete_invalidate_parent_stat():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    assert tree.exists("/a").num_children == 0
    apply(tree, CreateOp("/a/x"))
    stat = tree.exists("/a")
    assert stat.num_children == 1
    assert stat.cversion == 1
    assert stat == fresh_stat(tree.node("/a"))
    apply(tree, DeleteOp("/a/x"))
    stat = tree.exists("/a")
    assert stat.num_children == 0
    assert stat.cversion == 2
    assert stat == fresh_stat(tree.node("/a"))


# -- sorted children ----------------------------------------------------------


def test_get_children_stays_sorted_across_mutations():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    for name in ("zed", "mid", "abc"):
        apply(tree, CreateOp(f"/a/{name}"))
    assert tree.get_children("/a") == ["abc", "mid", "zed"]
    apply(tree, CreateOp("/a/bbb"))
    assert tree.get_children("/a") == ["abc", "bbb", "mid", "zed"]
    apply(tree, DeleteOp("/a/mid"))
    assert tree.get_children("/a") == ["abc", "bbb", "zed"]
    # Golden check: the listing equals a fresh sort of the live set.
    assert tree.get_children("/a") == sorted(tree.node("/a").children)


def test_get_children_returns_a_private_copy():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    apply(tree, CreateOp("/a/x"))
    listing = tree.get_children("/a")
    listing.append("mutated")
    assert tree.get_children("/a") == ["x"]


# -- sorted paths / ephemerals -----------------------------------------------


def test_paths_cache_tracks_creates_and_deletes():
    tree = DataTree()
    apply(tree, CreateOp("/b"))
    apply(tree, CreateOp("/a"))
    assert tree.paths() == ["/", "/a", "/b"]
    apply(tree, CreateOp("/a/x"))
    assert tree.paths() == ["/", "/a", "/a/x", "/b"]
    apply(tree, DeleteOp("/a/x"))
    assert tree.paths() == ["/", "/a", "/b"]
    tree.paths().append("/mutated")
    assert tree.paths() == ["/", "/a", "/b"]


def test_ephemerals_cache_tracks_session_churn():
    tree = DataTree()
    apply(tree, CreateOp("/e2", ephemeral=True), session="s9")
    apply(tree, CreateOp("/e1", ephemeral=True), session="s9")
    apply(tree, CreateOp("/other", ephemeral=True), session="s8")
    assert tree.ephemerals_of("s9") == ["/e1", "/e2"]
    apply(tree, CreateOp("/e3", ephemeral=True), session="s9")
    assert tree.ephemerals_of("s9") == ["/e1", "/e2", "/e3"]
    apply(tree, DeleteOp("/e1"))
    assert tree.ephemerals_of("s9") == ["/e2", "/e3"]
    assert tree.ephemerals_of("s8") == ["/other"]
    tree.ephemerals_of("s9").clear()
    assert tree.ephemerals_of("s9") == ["/e2", "/e3"]


def test_clone_does_not_share_caches():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    apply(tree, CreateOp("/a/x"))
    tree.get_children("/a")
    tree.paths()
    copy = tree.copy()
    apply(copy, CreateOp("/a/y"))
    assert copy.get_children("/a") == ["x", "y"]
    assert tree.get_children("/a") == ["x"]
    assert "/a/y" in copy.paths()
    assert "/a/y" not in tree.paths()
    assert copy.fingerprint() != tree.fingerprint()


# -- watch manager ------------------------------------------------------------


def test_drop_session_removes_only_that_sessions_watches():
    wm = WatchManager()
    wm.add_data_watch("/a", "s1")
    wm.add_data_watch("/a", "s2")
    wm.add_child_watch("/a", "s1")
    wm.drop_session("s1")
    fired = wm.trigger(WatchEvent(WatchType.NODE_DATA_CHANGED, "/a"))
    assert [(s, e.path) for s, e in fired] == [("s2", "/a")]
    # s1's child watch is gone too.
    fired = wm.trigger(WatchEvent(WatchType.NODE_CHILDREN_CHANGED, "/a"))
    assert fired == []


def test_watches_fire_once_and_reverse_index_stays_consistent():
    wm = WatchManager()
    wm.add_data_watch("/a", "s1")
    wm.add_data_watch("/b", "s1")
    fired = wm.trigger(WatchEvent(WatchType.NODE_DATA_CHANGED, "/a"))
    assert [(s, e.path) for s, e in fired] == [("s1", "/a")]
    # One-shot: firing consumed the watch on /a but left /b.
    assert wm.trigger(WatchEvent(WatchType.NODE_DATA_CHANGED, "/a")) == []
    # Dropping the session after a partial fire must not KeyError and must
    # clear the remaining watch.
    wm.drop_session("s1")
    assert wm.trigger(WatchEvent(WatchType.NODE_DATA_CHANGED, "/b")) == []
    assert wm.watch_count() == 0


def test_trigger_fires_sessions_in_sorted_order():
    wm = WatchManager()
    for session in ("s3", "s1", "s2"):
        wm.add_data_watch("/a", session)
    fired = wm.trigger(WatchEvent(WatchType.NODE_DATA_CHANGED, "/a"))
    assert [s for s, _ in fired] == ["s1", "s2", "s3"]
