"""One record idiom: every wire message and value record is a stdlib
slots dataclass (``repro.net.message.record``), with no hand-expanded
``__init__``/``__eq__``/``__hash__``/``__repr__`` beside it.

The hand-written ``__slots__`` classes this replaces had drifted (13 of
them defined ``__eq__`` without ``__hash__`` and were silently
unhashable); this file is the guard that keeps a second idiom from
growing back.
"""

import dataclasses
import inspect
import json
import multiprocessing
import pickle

import pytest

import repro.bookkeeper.messages
import repro.wankeeper.messages
import repro.wpaxos.messages
import repro.zab.messages
import repro.zk.ops
import repro.zk.protocol
from repro.net import NodeAddress
from repro.zab.log import LogEntry
from repro.zab.messages import Trunc
from repro.zab.zxid import Zxid
from repro.zk.ops import SetDataOp, Txn
from repro.zk.protocol import OpRequest
from repro.zk.records import Stat, WatchEvent
from repro.zk.sessions import Session

MESSAGE_MODULES = (
    repro.zab.messages,
    repro.wankeeper.messages,
    repro.wpaxos.messages,
    repro.bookkeeper.messages,
    repro.zk.protocol,
)

#: class -> the module that must define it.
RECORDS = {
    getattr(module, name): module.__name__
    for module in MESSAGE_MODULES
    for name in module.__all__
    if inspect.isclass(getattr(module, name))
}
RECORDS.update({
    cls: "repro.zk.ops" for cls in repro.zk.ops.Op.__args__
})
RECORDS.update({
    Stat: "repro.zk.records",
    WatchEvent: "repro.zk.records",
    Txn: "repro.zk.ops",
    Session: "repro.zk.sessions",
    LogEntry: "repro.zab.log",
})

FROZEN = (Txn, WatchEvent)
UNHASHABLE = (Session,)  # mutated in place by the session tracker

#: Every field default, as the pre-dataclass signatures had them. A class
#: not listed has none.
DEFAULTS = {
    "Trunc": {"entries": []},
    "UpToDate": {"committed_to": Zxid.ZERO},
    "SubmitRequest": {"ctx": None},
    "Ping": {"last_committed": None},
    "WanTxn": {"grants": ()},
    "WanHello": {"is_site_leader": True},
    "RemoteApply": {"to_origin": False},
    "TokenRecall": {"grant_counts": None},
    "TokenReturn": {"seq": 0, "grant_counts": None},
    "WanHeartbeat": {
        "live_sessions": (), "applied_relay_seq": 0, "owned_tokens": None,
    },
    "WanHeartbeatAck": {
        "known_sites": (), "absorbed": 0, "need_inventory": False,
    },
    "AddAck": {"ok": True},
    "OpReply": {"value": None, "error_code": None, "error_path": ""},
    "Txn": {"origin_site": None, "wan_seq": None},
    "Session": {"expired": False},
    "CreateOp": {"data": b"", "ephemeral": False, "sequential": False},
    "DeleteOp": {"version": -1},
    "SetDataOp": {"data": b"", "version": -1},
    "SyncOp": {"path": "/"},
    "CloseSessionOp": {"paths": None},
    "GetDataOp": {"watch": False},
    "ExistsOp": {"watch": False},
    "GetChildrenOp": {"watch": False},
}

all_records = pytest.mark.parametrize(
    "cls", list(RECORDS), ids=lambda cls: cls.__name__
)


def _names(cls):
    """The fields a record is built from; derived ones (``init=False``,
    like ``Txn.key``) are rebuilt by ``__post_init__``."""
    return [f.name for f in dataclasses.fields(cls) if f.init]


def _value(name, tag="value"):
    """A distinct hashable value for field ``name`` that the ops' own
    checks accept: a path is absolute, and a multi holds ops."""
    if name == "path":
        return f"/{name}-{tag}"
    if name == "ops":
        return (SetDataOp(f"/{name}-{tag}"),)
    return f"{name}-{tag}"


def _make(cls, **overrides):
    """An instance whose every field holds a distinct hashable value."""
    values = {name: _value(name) for name in _names(cls)}
    values.update(overrides)
    return cls(**values)


def test_roster_is_complete():
    assert len(RECORDS) == 18 + 20 + 10 + 6 + 8 + 5 + 10


@all_records
def test_is_a_slots_dataclass_defined_in_its_module(cls):
    assert dataclasses.is_dataclass(cls)
    assert cls.__module__ == RECORDS[cls]
    assert not hasattr(_make(cls), "__dict__")
    assert not hasattr(cls, "_astuple")
    params = cls.__dataclass_params__
    assert params.frozen == (cls in FROZEN)
    assert params.eq


@all_records
def test_no_hand_written_dunder(cls):
    module_file = inspect.getsourcefile(inspect.getmodule(cls))
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__"):
        method = vars(cls).get(name)
        if method is not None:
            assert inspect.unwrap(method).__code__.co_filename != module_file, name


@all_records
def test_equality_is_fieldwise_and_class_strict(cls):
    x = _make(cls)
    assert x == _make(cls)
    assert not (x != _make(cls))
    for name in _names(cls):
        assert x != _make(cls, **{name: _value(name, "other")})
    values = tuple(getattr(x, name) for name in _names(cls))
    assert x != values
    lookalike = type(cls.__name__, (cls,), {"__slots__": ()})
    assert x != lookalike(*values)


@all_records
def test_hash_is_hash_of_field_tuple(cls):
    x = _make(cls)
    if cls in UNHASHABLE:
        assert cls.__hash__ is None
        return
    assert hash(x) == hash(tuple(getattr(x, name) for name in _names(cls)))
    assert x in {_make(cls)}


@all_records
def test_repr_names_every_field(cls):
    x = _make(cls)
    inner = ", ".join(f"{name}={_value(name)!r}" for name in _names(cls))
    assert repr(x) == f"{cls.__name__}({inner})"


@all_records
def test_defaults_match_the_old_signatures(cls):
    got = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            got[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            got[f.name] = f.default_factory()
    assert got == DEFAULTS.get(cls.__name__, {})


def test_trunc_default_entries_are_not_shared():
    a, b = Trunc("n", Zxid.ZERO), Trunc("n", Zxid.ZERO)
    a.entries.append("entry")
    assert b.entries == []


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_reject_assignment(cls):
    x = _make(cls)
    name = _names(cls)[0]
    with pytest.raises(AttributeError):
        setattr(x, name, "changed")
    assert getattr(x, name) == _value(name)


def test_derived_fields_are_txn_key_alone():
    derived = {
        cls.__name__: [f.name for f in dataclasses.fields(cls) if not f.init]
        for cls in RECORDS
    }
    assert {name: names for name, names in derived.items() if names} == {
        "Txn": ["key"],
    }


def test_txn_key_is_derived_out_of_init_eq_hash_and_repr():
    (key_field,) = [f for f in dataclasses.fields(Txn) if f.name == "key"]
    assert (key_field.init, key_field.compare, key_field.repr) == (
        False, False, False,
    )
    assert key_field.hash is None  # follows compare: out of the hash
    txn = Txn("s#1", 7, "origin", "op")
    assert txn.key == ("s#1", 7)
    with pytest.raises(TypeError):
        Txn("s#1", 7, "origin", "op", key=("s#1", 7))
    assert "key" not in repr(txn)
    assert hash(txn) == hash(("s#1", 7, "origin", "op", None, None))
    # A txn whose key somehow disagreed would still compare by its fields.
    twin = Txn("s#1", 7, "origin", "op")
    object.__setattr__(twin, "key", ("other", 0))
    assert twin == txn and hash(twin) == hash(txn)
    with pytest.raises(AttributeError):
        txn.key = ("s#2", 1)


def test_every_txn_copy_rebuilds_its_key():
    txn = Txn("s#1", 7, "origin", "op", "site", 3)
    copies = {
        "replace_op": txn.replace_op("other-op"),
        "dataclasses.replace": dataclasses.replace(txn, cxid=8),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies[f"pickle-{protocol}"] = pickle.loads(pickle.dumps(txn, protocol))
    for how, copy in copies.items():
        assert type(copy.key) is tuple, how
        assert copy.key == (copy.session_id, copy.cxid), how
    assert copies["dataclasses.replace"].key == ("s#1", 8)
    assert copies["replace_op"].key is not txn.key  # rebuilt, not shared
    with pytest.raises(ValueError):
        dataclasses.replace(txn, key=("s#9", 9))


def test_recycled_op_request_is_reassigned_in_place():
    # A record's fields are assignable; equality and hash follow them.
    req = OpRequest("s1", 1, "op-a")
    req.session_id, req.cxid, req.op = "s2", 7, "op-b"
    assert req == OpRequest("s2", 7, "op-b")
    assert hash(req) == hash(("s2", 7, "op-b"))


# -- NodeAddress: a tuple subclass, as Zxid is -----------------------------------


def test_node_address_hash_order_and_text_are_the_old_ones():
    addr = NodeAddress("virginia", "wk0.zab")
    assert (addr.site, addr.name) == ("virginia", "wk0.zab")
    # The value the hand-written class cached: iteration orders hold.
    assert hash(addr) == hash(("virginia", "wk0.zab"))
    assert str(addr) == f"{addr}" == "virginia/wk0.zab"
    assert repr(addr) == "NodeAddress(site='virginia', name='wk0.zab')"
    names = [("b", "x"), ("a", "z"), ("a", "y"), ("c", "")]
    assert sorted(NodeAddress(*n) for n in names) == [
        NodeAddress(*n) for n in sorted(names)
    ]
    assert NodeAddress("a", "y") < NodeAddress("a", "z") <= NodeAddress("b", "x")
    assert NodeAddress("a", "y") != NodeAddress("a", "z")
    for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
                 "__hash__", "__setattr__", "_hash"):
        assert name not in vars(NodeAddress), name


def test_node_address_is_immutable_and_carries_no_dict():
    addr = NodeAddress("virginia", "c1")
    for name in ("site", "name", "extra"):
        with pytest.raises(AttributeError):
            setattr(addr, name, "changed")
    assert not hasattr(addr, "__dict__")
    assert addr == NodeAddress("virginia", "c1")


def test_equal_addresses_minted_twice_are_one_key():
    table = {NodeAddress("frankfurt", "fleet-7"): "first"}
    table[NodeAddress("frankfurt", "fleet-" + str(7))] = "second"
    assert table == {NodeAddress("frankfurt", "fleet-7"): "second"}
    assert NodeAddress("frankfurt", "fleet-7") in {NodeAddress("frankfurt", "fleet-7")}


def test_node_address_pickles_as_the_runner_pool_sends_it():
    addr = NodeAddress("california", "zk1")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(addr, protocol))
        assert type(copy) is NodeAddress and copy == addr
    # The pool talks to its workers over multiprocessing pipes.
    ours, theirs = multiprocessing.Pipe()
    try:
        ours.send({"leader": addr, "voters": [addr]})
        received = theirs.recv()
    finally:
        ours.close()
        theirs.close()
    assert type(received["leader"]) is NodeAddress
    assert received == {"leader": addr, "voters": [addr]}


def test_node_address_accepted_differences_from_the_class_it_replaced():
    """Three things a tuple subclass does that the hand-written class did
    not (docs/PERFORMANCE.md, "Tracked transport path"); nothing in the
    repo depends on the old answers."""
    addr = NodeAddress("virginia", "zk0")
    assert addr == ("virginia", "zk0")
    assert isinstance(addr, tuple)
    assert json.dumps(addr) == '["virginia", "zk0"]'
