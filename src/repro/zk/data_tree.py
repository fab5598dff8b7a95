"""The replicated znode tree.

Every server holds one :class:`DataTree` and applies committed transactions
to it in zxid order. ``apply`` is fully deterministic — sequential names,
version bumps, and error outcomes are all functions of (tree state, txn) —
so replicas stay byte-identical without any cross-talk beyond the broadcast.

Watch bookkeeping is local to each server (a client's watches live where the
client is connected); the tree reports which watch events an applied txn
*would* fire and the server routes them to its own watchers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.zab.zxid import Zxid
from repro.zk.errors import (
    ApiError,
    BadVersionError,
    NoChildrenForEphemeralsError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
)
from repro.zk.ops import (
    CheckVersionOp,
    CloseSessionOp,
    CreateOp,
    DeleteOp,
    MultiOp,
    SetDataOp,
    SyncOp,
)
from repro.zk.paths import basename, parent_of
from repro.zk.records import Stat, WatchEvent, WatchType, Znode

__all__ = ["ApplyOutcome", "DataTree"]


class ApplyOutcome:
    """Result of applying one write txn.

    ``ok`` plus either ``value`` (op-specific payload) or ``error``.
    ``events`` is the sequence of watch events the mutation fires (the
    empty tuple when it fires none; callers never mutate it). A
    hand-written ``__slots__`` class: one is allocated per committed write
    on every replica.
    """

    __slots__ = ("ok", "value", "error", "events")

    def __init__(
        self,
        ok: bool,
        value: Any = None,
        error: Optional[ApiError] = None,
        events: Sequence[WatchEvent] = (),
    ):
        self.ok = ok
        self.value = value
        self.error = error
        self.events = events

    def __repr__(self) -> str:
        return (
            f"ApplyOutcome(ok={self.ok!r}, value={self.value!r}, "
            f"error={self.error!r}, events={self.events!r})"
        )


class DataTree:
    """In-memory znode tree with deterministic mutation."""

    def __init__(self):
        self._nodes: Dict[str, Znode] = {}
        self._nodes["/"] = Znode(
            path="/", data=b"", czxid=Zxid.ZERO, mzxid=Zxid.ZERO, pzxid=Zxid.ZERO
        )
        # session_id -> set of ephemeral paths (derived cache; rebuilt on reset)
        self._ephemerals: Dict[str, set] = {}

    # -- reads (local, never replicated) ------------------------------------

    def __contains__(self, path: str) -> bool:
        return path in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, path: str) -> Optional[Znode]:
        return self._nodes.get(path)

    def get_data(self, path: str) -> Tuple[bytes, Stat]:
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        return node.data, node.stat()

    def exists(self, path: str) -> Optional[Stat]:
        node = self._nodes.get(path)
        return node.stat() if node is not None else None

    def get_children(self, path: str) -> List[str]:
        node = self._nodes.get(path)
        if node is None:
            raise NoNodeError(path)
        return sorted(node.children)

    def ephemerals_of(self, session_id: str) -> List[str]:
        return sorted(self._ephemerals.get(session_id, ()))

    def paths(self) -> List[str]:
        return sorted(self._nodes)

    # -- writes --------------------------------------------------------------

    def apply(self, op: Any, zxid: Zxid, session_id: str) -> ApplyOutcome:
        """Apply one committed write op; never raises for API errors."""
        if isinstance(op, SetDataOp):  # the common write, so tested first
            return self._apply_set_data(op, zxid)
        if isinstance(op, CreateOp):
            return self._apply_create(op, zxid, session_id)
        if isinstance(op, DeleteOp):
            return self._apply_delete(op, zxid)
        if isinstance(op, CheckVersionOp):
            return self._apply_check(op)
        if isinstance(op, MultiOp):
            return self._apply_multi(op, zxid, session_id)
        if isinstance(op, SyncOp):
            return ApplyOutcome(ok=True, value=op.path)
        if isinstance(op, CloseSessionOp):
            return self._apply_close_session(op, zxid)
        raise TypeError(f"not a write op: {op!r}")

    def _apply_create(
        self, op: CreateOp, zxid: Zxid, session_id: str
    ) -> ApplyOutcome:
        parent_path = parent_of(op.path)
        parent = self._nodes.get(parent_path)
        if parent is None:
            return ApplyOutcome(ok=False, error=NoNodeError(parent_path))
        if parent.is_ephemeral:
            return ApplyOutcome(
                ok=False, error=NoChildrenForEphemeralsError(parent_path)
            )
        if op.sequential:
            name = f"{basename(op.path)}{parent.sequence:010d}"
            parent.sequence += 1
            actual_path = (
                f"{parent_path}/{name}" if parent_path != "/" else f"/{name}"
            )
        else:
            actual_path = op.path
        if actual_path in self._nodes:
            return ApplyOutcome(ok=False, error=NodeExistsError(actual_path))

        owner = session_id if op.ephemeral else None
        node = Znode(
            path=actual_path,
            data=op.data,
            czxid=zxid,
            mzxid=zxid,
            pzxid=zxid,
            ephemeral_owner=owner,
        )
        self._nodes[actual_path] = node
        parent.children.add(basename(actual_path))
        parent.cversion += 1
        parent.pzxid = zxid
        parent.invalidate()
        if owner is not None:
            self._ephemerals.setdefault(owner, set()).add(actual_path)
        events = [
            WatchEvent(WatchType.NODE_CREATED, actual_path),
            WatchEvent(WatchType.NODE_CHILDREN_CHANGED, parent_path),
        ]
        return ApplyOutcome(ok=True, value=actual_path, events=events)

    def _apply_delete(self, op: DeleteOp, zxid: Zxid) -> ApplyOutcome:
        node = self._nodes.get(op.path)
        if node is None:
            return ApplyOutcome(ok=False, error=NoNodeError(op.path))
        if node.children:
            return ApplyOutcome(ok=False, error=NotEmptyError(op.path))
        if op.version != -1 and op.version != node.version:
            return ApplyOutcome(ok=False, error=BadVersionError(op.path))
        self._remove_node(node, zxid)
        parent_path = parent_of(op.path)
        events = [
            WatchEvent(WatchType.NODE_DELETED, op.path),
            WatchEvent(WatchType.NODE_CHILDREN_CHANGED, parent_path),
        ]
        return ApplyOutcome(ok=True, value=op.path, events=events)

    def _remove_node(self, node: Znode, zxid: Zxid) -> None:
        del self._nodes[node.path]
        parent = self._nodes[parent_of(node.path)]
        parent.children.discard(basename(node.path))
        parent.cversion += 1
        parent.pzxid = zxid
        parent.invalidate()
        if node.ephemeral_owner is not None:
            owned = self._ephemerals.get(node.ephemeral_owner)
            if owned is not None:
                owned.discard(node.path)
                if not owned:
                    del self._ephemerals[node.ephemeral_owner]

    def _apply_set_data(self, op: SetDataOp, zxid: Zxid) -> ApplyOutcome:
        node = self._nodes.get(op.path)
        if node is None:
            return ApplyOutcome(ok=False, error=NoNodeError(op.path))
        if op.version != -1 and op.version != node.version:
            return ApplyOutcome(ok=False, error=BadVersionError(op.path))
        # Every replica runs this for every set, so it allocates only the
        # new Stat, in place of invalidate() + stat(), and reuses the event.
        data = node.data = op.data
        version = node.version = node.version + 1
        node.mzxid = zxid
        stat = node._stat = Stat(node.czxid, zxid, node.pzxid, version,
                                 node.cversion, node.ephemeral_owner,
                                 len(data), len(node.children))
        events = node._data_changed
        if events is None:
            events = node._data_changed = (
                WatchEvent(WatchType.NODE_DATA_CHANGED, op.path),
            )
        return ApplyOutcome(True, stat, None, events)

    def _apply_check(self, op: CheckVersionOp) -> ApplyOutcome:
        node = self._nodes.get(op.path)
        if node is None:
            return ApplyOutcome(ok=False, error=NoNodeError(op.path))
        if op.version != -1 and op.version != node.version:
            return ApplyOutcome(ok=False, error=BadVersionError(op.path))
        return ApplyOutcome(ok=True, value=node.stat())

    def _apply_multi(
        self, op: MultiOp, zxid: Zxid, session_id: str
    ) -> ApplyOutcome:
        """All-or-nothing: dry-run against a shadow copy, then apply."""
        shadow = self.copy()
        results = []
        for sub in op.ops:
            outcome = shadow.apply(sub, zxid, session_id)
            if not outcome.ok:
                return ApplyOutcome(ok=False, error=outcome.error)
            results.append(outcome.value)
        # Dry run succeeded: apply for real, collecting events.
        events: List[WatchEvent] = []
        values = []
        for sub in op.ops:
            outcome = self.apply(sub, zxid, session_id)
            assert outcome.ok, "multi dry-run diverged from real apply"
            events.extend(outcome.events)
            values.append(outcome.value)
        return ApplyOutcome(ok=True, value=values, events=events)

    def _apply_close_session(self, op: CloseSessionOp, zxid: Zxid) -> ApplyOutcome:
        events: List[WatchEvent] = []
        if op.paths is not None:
            targets = list(op.paths)
        else:
            targets = self.ephemerals_of(op.session_id)
        # Deepest-first so parents never lose children out from under us
        # (ephemerals cannot have children, but be safe and deterministic).
        for path in sorted(targets, key=lambda p: (-p.count("/"), p)):
            node = self._nodes.get(path)
            if node is None:
                continue
            if node.ephemeral_owner != op.session_id:
                continue  # recreated by someone else; not ours to delete
            self._remove_node(node, zxid)
            events.append(WatchEvent(WatchType.NODE_DELETED, path))
            events.append(
                WatchEvent(WatchType.NODE_CHILDREN_CHANGED, parent_of(path))
            )
        return ApplyOutcome(ok=True, value=op.session_id, events=events)

    # -- snapshot / copy -------------------------------------------------------

    def copy(self) -> "DataTree":
        """Deep copy (multi() dry runs and snapshots)."""
        copy = DataTree.__new__(DataTree)
        copy._nodes = {}
        for path, node in self._nodes.items():
            copy._nodes[path] = Znode(
                path=node.path,
                data=node.data,
                czxid=node.czxid,
                mzxid=node.mzxid,
                pzxid=node.pzxid,
                version=node.version,
                cversion=node.cversion,
                ephemeral_owner=node.ephemeral_owner,
                children=set(node.children),
                sequence=node.sequence,
            )
        copy._ephemerals = {
            session: set(paths) for session, paths in self._ephemerals.items()
        }
        return copy

    def fingerprint(self) -> int:
        """Order-insensitive digest of the full tree (replica comparison)."""
        items = tuple(
            (
                path,
                node.data,
                node.version,
                node.cversion,
                node.ephemeral_owner,
                node.sequence,
            )
            for path, node in sorted(self._nodes.items())
        )
        return hash(items)
