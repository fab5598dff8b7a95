"""Shared record types: Stat, Znode, watch events."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Set

from repro.net.message import record
from repro.zab.zxid import Zxid

__all__ = ["Stat", "WatchEvent", "WatchType", "Znode"]


@record
class Stat:
    """Znode metadata, as returned by read operations (ZooKeeper Stat)."""

    czxid: Zxid
    mzxid: Zxid
    pzxid: Zxid
    version: int
    cversion: int
    ephemeral_owner: Optional[str]
    data_length: int
    num_children: int

    @property
    def is_ephemeral(self) -> bool:
        return self.ephemeral_owner is not None


class WatchType(str, enum.Enum):
    """Watch notification types (ZooKeeper EventType)."""

    NODE_CREATED = "node_created"
    NODE_DELETED = "node_deleted"
    NODE_DATA_CHANGED = "node_data_changed"
    NODE_CHILDREN_CHANGED = "node_children_changed"


@dataclass(frozen=True, slots=True)
class WatchEvent:
    """A fired watch, delivered asynchronously to the watching client."""

    type: WatchType
    path: str


class Znode:
    """One node in the replicated tree. Mutable; lives inside DataTree only.

    Hand-written ``__slots__`` class: every committed write reads and
    mutates half a dozen node fields, and slot access avoids the
    per-instance ``__dict__`` of the dataclass it replaces.
    """

    __slots__ = (
        "path",
        "data",
        "czxid",
        "mzxid",
        "pzxid",
        "version",
        "cversion",
        "ephemeral_owner",
        "children",
        # Monotonic counter for naming sequential children.
        "sequence",
        # Dirty-flag cache of the Stat returned by reads, rebuilt lazily
        # and dropped by invalidate(). Every mutation site in DataTree
        # calls invalidate() on the touched node(s), except a set, which
        # rebuilds _stat in place; a stale value here would leak old
        # metadata to readers.
        "_stat",
        # This node's one NODE_DATA_CHANGED event (as a 1-tuple), built by
        # its first set and reused by every later one: the event is frozen
        # and its path is the node's for life.
        "_data_changed",
    )

    def __init__(
        self,
        path: str,
        data: bytes,
        czxid: Zxid,
        mzxid: Zxid,
        pzxid: Zxid,
        version: int = 0,
        cversion: int = 0,
        ephemeral_owner: Optional[str] = None,
        children: Optional[Set[str]] = None,
        sequence: int = 0,
    ):
        self.path = path
        self.data = data
        self.czxid = czxid
        self.mzxid = mzxid
        self.pzxid = pzxid
        self.version = version
        self.cversion = cversion
        self.ephemeral_owner = ephemeral_owner
        self.children = set() if children is None else children
        self.sequence = sequence
        self._stat = None
        self._data_changed = None

    def __repr__(self) -> str:
        return (
            f"Znode(path={self.path!r}, data={self.data!r}, "
            f"czxid={self.czxid!r}, mzxid={self.mzxid!r}, "
            f"pzxid={self.pzxid!r}, version={self.version!r}, "
            f"cversion={self.cversion!r}, "
            f"ephemeral_owner={self.ephemeral_owner!r}, "
            f"children={self.children!r}, sequence={self.sequence!r})"
        )

    @property
    def is_ephemeral(self) -> bool:
        return self.ephemeral_owner is not None

    def invalidate(self) -> None:
        """Drop the cached Stat after any field mutation."""
        self._stat = None

    def stat(self) -> Stat:
        """This node's Stat; cached until the next mutation.

        Stat is immutable, so handing the same instance to every reader
        between mutations is safe — and reads outnumber writes enough
        that the per-read allocation was measurable in profiles.
        """
        stat = self._stat
        if stat is None:
            # Positional: a keyword-built record costs over twice as much.
            stat = self._stat = Stat(
                self.czxid, self.mzxid, self.pzxid, self.version,
                self.cversion, self.ephemeral_owner, len(self.data),
                len(self.children),
            )
        return stat
