"""Client operations and the replicated transaction envelope.

Write operations travel through atomic broadcast as :class:`Txn` envelopes
and are applied deterministically by every replica — including deterministic
error outcomes and sequential-name assignment, so all trees stay identical.
Read operations never enter the broadcast; servers answer them from their
local tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Set, Tuple, Union

from repro.net.message import record
from repro.zk.paths import parent_of, validate_path

__all__ = [
    "CheckVersionOp",
    "CloseSessionOp",
    "CreateOp",
    "DeleteOp",
    "ExistsOp",
    "GetChildrenOp",
    "GetDataOp",
    "MultiOp",
    "Op",
    "SetDataOp",
    "SyncOp",
    "Txn",
    "is_write_op",
    "paths_touched",
]


# -- write ops ---------------------------------------------------------------


@record
class CreateOp:
    path: str
    data: bytes = b""
    ephemeral: bool = False
    sequential: bool = False

    def __post_init__(self) -> None:
        validate_path(self.path)
        if self.path == "/":
            raise ValueError("cannot create the root node")


@record
class DeleteOp:
    path: str
    version: int = -1

    def __post_init__(self) -> None:
        validate_path(self.path)
        if self.path == "/":
            raise ValueError("cannot delete the root node")


@record
class SetDataOp:
    path: str
    data: bytes = b""
    version: int = -1

    def __post_init__(self) -> None:
        validate_path(self.path)


@record
class CheckVersionOp:
    """Precondition op for multi(): fail unless version matches."""

    path: str
    version: int

    def __post_init__(self) -> None:
        validate_path(self.path)


@record
class MultiOp:
    """All-or-nothing transaction over multiple write ops."""

    ops: Tuple[Union[CreateOp, DeleteOp, SetDataOp, CheckVersionOp], ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("multi() requires at least one op")
        for op in self.ops:
            if not isinstance(op, (CreateOp, DeleteOp, SetDataOp, CheckVersionOp)):
                raise ValueError(f"multi() cannot contain {type(op).__name__}")


@record
class SyncOp:
    """Flush: complete once all prior commits are visible at the server.

    Modelled as a no-op write through the broadcast pipeline, which is a
    conservative (slower) approximation of ZooKeeper's sync.
    """

    path: str = "/"


@record
class CloseSessionOp:
    """Internal: expire a session and delete its ephemerals.

    With ``paths`` unset, applying scans the local tree for the session's
    ephemerals (single-ensemble ZooKeeper behaviour). WanKeeper's level-2
    broker pins the explicit path list at serialization time so that every
    site deletes exactly the same nodes regardless of replication races;
    stragglers are garbage-collected by a follow-up close.
    """

    session_id: str
    paths: Optional[Tuple[str, ...]] = None


# -- read ops ----------------------------------------------------------------


@record
class GetDataOp:
    path: str
    watch: bool = False

    def __post_init__(self) -> None:
        validate_path(self.path)


@record
class ExistsOp:
    path: str
    watch: bool = False

    def __post_init__(self) -> None:
        validate_path(self.path)


@record
class GetChildrenOp:
    path: str
    watch: bool = False

    def __post_init__(self) -> None:
        validate_path(self.path)


Op = Union[
    CreateOp,
    DeleteOp,
    SetDataOp,
    MultiOp,
    SyncOp,
    CloseSessionOp,
    GetDataOp,
    ExistsOp,
    GetChildrenOp,
    CheckVersionOp,
]

WRITE_OPS = (CreateOp, DeleteOp, SetDataOp, MultiOp, SyncOp, CloseSessionOp)
READ_OPS = (GetDataOp, ExistsOp, GetChildrenOp)


def is_write_op(op: Any) -> bool:
    """True if ``op`` must go through atomic broadcast."""
    return isinstance(op, WRITE_OPS)


def paths_touched(op: Any) -> Set[str]:
    """The znode paths a write op reads or modifies.

    This is the record set WanKeeper checks tokens for (a create also
    touches the parent, whose cversion/sequence it updates).
    """
    if isinstance(op, CreateOp):
        return {op.path, parent_of(op.path)}
    if isinstance(op, DeleteOp):
        return {op.path, parent_of(op.path)}
    if isinstance(op, (SetDataOp, CheckVersionOp)):
        return {op.path}
    if isinstance(op, MultiOp):
        result: Set[str] = set()
        for sub in op.ops:
            result |= paths_touched(sub)
        return result
    if isinstance(op, SyncOp):
        return set()
    if isinstance(op, CloseSessionOp):
        return set()
    if isinstance(op, READ_OPS):
        return {op.path}
    raise TypeError(f"not an op: {op!r}")


@dataclass(frozen=True, slots=True)
class Txn:
    """The replicated transaction envelope for one write op.

    ``origin`` is the address of the server that accepted the client request
    (it replies to the client once it applies the commit). ``session_id`` and
    ``cxid`` correlate the reply. WanKeeper wraps this envelope with token
    metadata; the tree only looks at ``op``.

    ``key`` is the request id ``(session_id, cxid)``, built once here. The
    txn travels by reference to every replica, so every at-most-once and
    dedup table keyed by it shares this one tuple. It is derived: not an
    ``__init__`` argument, and outside ``==``, ``hash`` and ``repr``.
    """

    session_id: str
    cxid: int
    origin: Any  # NodeAddress of the accepting server
    op: Op
    # WanKeeper cross-site metadata (None for plain ZooKeeper).
    origin_site: Optional[str] = None
    wan_seq: Optional[int] = None
    key: Tuple[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.session_id, self.cxid))

    def replace_op(self, op: Op) -> "Txn":
        """A copy of this txn carrying ``op`` instead of the original."""
        return Txn(
            self.session_id,
            self.cxid,
            self.origin,
            op,
            self.origin_site,
            self.wan_seq,
        )
