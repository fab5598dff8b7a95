"""Unit tests for the znode tree, paths, and watch manager."""

import pytest

from repro.zab import Zxid
from repro.zk import (
    CreateOp,
    DataTree,
    DeleteOp,
    MultiOp,
    SetDataOp,
    WatchType,
)
from repro.zk.errors import (
    BadVersionError,
    NoChildrenForEphemeralsError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
)
from repro.zk.ops import CheckVersionOp, CloseSessionOp, SyncOp
from repro.zk.paths import basename, parent_of, split, validate_path
from repro.zk.watches import WatchManager
from repro.zk.records import WatchEvent


Z = Zxid


def apply(tree, op, counter=[0], session="s1"):
    counter[0] += 1
    return tree.apply(op, Z(1, counter[0]), session)


def test_root_always_exists():
    tree = DataTree()
    assert "/" in tree
    assert tree.exists("/") is not None


def test_create_and_get():
    tree = DataTree()
    outcome = apply(tree, CreateOp("/a", b"hello"))
    assert outcome.ok and outcome.value == "/a"
    data, stat = tree.get_data("/a")
    assert data == b"hello"
    assert stat.version == 0


def test_create_under_missing_parent_fails():
    tree = DataTree()
    outcome = apply(tree, CreateOp("/a/b"))
    assert not outcome.ok
    assert isinstance(outcome.error, NoNodeError)


def test_create_duplicate_fails():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    outcome = apply(tree, CreateOp("/a"))
    assert not outcome.ok
    assert isinstance(outcome.error, NodeExistsError)


def test_create_under_ephemeral_fails():
    tree = DataTree()
    apply(tree, CreateOp("/e", ephemeral=True))
    outcome = apply(tree, CreateOp("/e/child"))
    assert not outcome.ok
    assert isinstance(outcome.error, NoChildrenForEphemeralsError)


def test_sequential_names_monotonic():
    tree = DataTree()
    apply(tree, CreateOp("/locks"))
    names = []
    for _ in range(3):
        outcome = apply(tree, CreateOp("/locks/lock-", sequential=True))
        names.append(outcome.value)
    assert names == [
        "/locks/lock-0000000000",
        "/locks/lock-0000000001",
        "/locks/lock-0000000002",
    ]


def test_sequential_counter_survives_deletes():
    tree = DataTree()
    apply(tree, CreateOp("/q"))
    first = apply(tree, CreateOp("/q/n-", sequential=True)).value
    apply(tree, DeleteOp(first))
    second = apply(tree, CreateOp("/q/n-", sequential=True)).value
    assert second.endswith("0000000001")


def test_set_data_bumps_version():
    tree = DataTree()
    apply(tree, CreateOp("/a", b"v0"))
    outcome = apply(tree, SetDataOp("/a", b"v1"))
    assert outcome.ok
    assert outcome.value.version == 1
    data, _stat = tree.get_data("/a")
    assert data == b"v1"


def test_set_data_version_check():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    assert apply(tree, SetDataOp("/a", b"x", version=0)).ok
    outcome = apply(tree, SetDataOp("/a", b"y", version=0))
    assert not outcome.ok
    assert isinstance(outcome.error, BadVersionError)


def test_delete_requires_empty():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    apply(tree, CreateOp("/a/b"))
    outcome = apply(tree, DeleteOp("/a"))
    assert not outcome.ok
    assert isinstance(outcome.error, NotEmptyError)
    assert apply(tree, DeleteOp("/a/b")).ok
    assert apply(tree, DeleteOp("/a")).ok


def test_delete_version_check():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    apply(tree, SetDataOp("/a", b"x"))
    outcome = apply(tree, DeleteOp("/a", version=0))
    assert not outcome.ok
    assert isinstance(outcome.error, BadVersionError)
    assert apply(tree, DeleteOp("/a", version=1)).ok


def test_get_children_sorted():
    tree = DataTree()
    apply(tree, CreateOp("/p"))
    for name in ["c", "a", "b"]:
        apply(tree, CreateOp(f"/p/{name}"))
    assert tree.get_children("/p") == ["a", "b", "c"]
    with pytest.raises(NoNodeError):
        tree.get_children("/missing")


def test_parent_cversion_and_pzxid_track_children():
    tree = DataTree()
    apply(tree, CreateOp("/p"))
    before = tree.exists("/p")
    apply(tree, CreateOp("/p/c"))
    after = tree.exists("/p")
    assert after.cversion == before.cversion + 1
    assert after.pzxid > before.pzxid


def test_multi_all_or_nothing():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    bad = MultiOp((CreateOp("/b"), CreateOp("/a")))  # second fails
    outcome = apply(tree, bad)
    assert not outcome.ok
    assert "/b" not in tree  # first op rolled back


def test_multi_success_returns_all_results():
    tree = DataTree()
    outcome = apply(tree, MultiOp((CreateOp("/x", b"1"), CreateOp("/y", b"2"))))
    assert outcome.ok
    assert outcome.value == ["/x", "/y"]


def test_multi_check_version_guard():
    tree = DataTree()
    apply(tree, CreateOp("/a"))
    guarded = MultiOp((CheckVersionOp("/a", 5), SetDataOp("/a", b"no")))
    outcome = apply(tree, guarded)
    assert not outcome.ok
    assert tree.get_data("/a")[0] == b""


def test_close_session_deletes_ephemerals():
    tree = DataTree()
    apply(tree, CreateOp("/e1", ephemeral=True), session="sess-a")
    apply(tree, CreateOp("/e2", ephemeral=True), session="sess-a")
    apply(tree, CreateOp("/keep", ephemeral=True), session="sess-b")
    outcome = apply(tree, CloseSessionOp("sess-a"))
    assert outcome.ok
    assert "/e1" not in tree and "/e2" not in tree
    assert "/keep" in tree


def test_ephemerals_of_tracking():
    tree = DataTree()
    apply(tree, CreateOp("/e", ephemeral=True), session="s9")
    assert tree.ephemerals_of("s9") == ["/e"]
    apply(tree, DeleteOp("/e"))
    assert tree.ephemerals_of("s9") == []


def test_sync_op_is_noop():
    tree = DataTree()
    outcome = apply(tree, SyncOp("/"))
    assert outcome.ok


def test_clone_is_deep():
    tree = DataTree()
    apply(tree, CreateOp("/a", b"orig"))
    copy = tree.copy()
    apply(tree, SetDataOp("/a", b"changed"))
    assert copy.get_data("/a")[0] == b"orig"
    assert tree.fingerprint() != copy.fingerprint()


def test_fingerprint_equal_for_same_history():
    t1, t2 = DataTree(), DataTree()
    ops = [CreateOp("/a", b"x"), CreateOp("/a/b"), SetDataOp("/a", b"y")]
    for i, op in enumerate(ops, start=1):
        t1.apply(op, Z(1, i), "s")
        t2.apply(op, Z(1, i), "s")
    assert t1.fingerprint() == t2.fingerprint()


def test_create_events():
    tree = DataTree()
    outcome = apply(tree, CreateOp("/a"))
    types = {(e.type, e.path) for e in outcome.events}
    assert (WatchType.NODE_CREATED, "/a") in types
    assert (WatchType.NODE_CHILDREN_CHANGED, "/") in types


# -- paths --------------------------------------------------------------


def test_validate_path_accepts_good_paths():
    for path in ["/", "/a", "/a/b/c", "/with-dash_and.dot"]:
        assert validate_path(path) == path


def test_validate_path_rejects_bad_paths():
    for path in ["", "a", "/a/", "//b", "/a//b", "/a/./b", "/a/../b", None]:
        with pytest.raises(ValueError):
            validate_path(path)


def test_parent_and_basename():
    assert parent_of("/a/b/c") == "/a/b"
    assert parent_of("/a") == "/"
    assert parent_of("/") == "/"
    assert basename("/a/b") == "b"
    assert basename("/") == ""
    assert split("/a/b") == ["a", "b"]
    assert split("/") == []


# -- watches -------------------------------------------------------------


def test_watch_manager_one_shot():
    wm = WatchManager()
    wm.add_data_watch("/a", "s1")
    event = WatchEvent(WatchType.NODE_DATA_CHANGED, "/a")
    assert wm.trigger(event) == [("s1", event)]
    assert wm.trigger(event) == []


def test_watch_manager_child_vs_data():
    wm = WatchManager()
    wm.add_data_watch("/a", "s1")
    wm.add_child_watch("/a", "s2")
    changed = WatchEvent(WatchType.NODE_CHILDREN_CHANGED, "/a")
    fired = wm.trigger(changed)
    assert fired == [("s2", changed)]
    # Data watch is still armed.
    deleted = WatchEvent(WatchType.NODE_DELETED, "/a")
    assert ("s1", deleted) in wm.trigger(deleted)


def test_watch_manager_delete_fires_both_kinds():
    wm = WatchManager()
    wm.add_data_watch("/a", "s1")
    wm.add_child_watch("/a", "s2")
    deleted = WatchEvent(WatchType.NODE_DELETED, "/a")
    fired = wm.trigger(deleted)
    assert set(fired) == {("s1", deleted), ("s2", deleted)}


def test_watch_manager_drop_session():
    wm = WatchManager()
    wm.add_data_watch("/a", "s1")
    wm.add_child_watch("/b", "s1")
    wm.drop_session("s1")
    assert wm.watch_count() == 0
