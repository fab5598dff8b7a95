"""In-memory transaction log: the suffix above the replica's snapshot.

Each peer keeps an ordered log of accepted transactions. The log supports
the three synchronization modes Zab uses to catch a follower up:

* ``DIFF``  — send the suffix of entries the follower is missing;
* ``TRUNC`` — tell the follower to drop entries the new leader never saw;
* ``SNAP``  — ship the state machine's state when the follower is too far
  back (its tail is below the log's ``base``) or off our history.

Entries are strictly increasing in zxid and **counter-contiguous inside an
epoch** (the leader counts by one, followers refuse holes, :meth:`append`
enforces it), so an entry's position is its epoch's offset plus its
counter: lookups are arithmetic, with no per-entry index to keep. The
apply path runs once per commit per replica and walks ``entries`` forward
from a cursor the peer keeps. The peer drops applied entries from the
front (:meth:`drop_before`) once the replica's state holds them.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.net.message import record
from repro.zab.zxid import Zxid

__all__ = ["LogEntry", "TxnLog"]

_zxid_of = attrgetter("zxid")


@record
class LogEntry:
    """A single accepted transaction."""

    zxid: Zxid
    txn: Any


class TxnLog:
    """Ordered transaction log, contiguous inside each epoch."""

    def __init__(self):
        #: The entries in zxid order. The same list for the log's whole
        #: life (mutated in place), so a reference to it stays valid; an
        #: index into it shifts by what :meth:`drop_before` drops.
        self.entries: List[LogEntry] = []
        #: Zxid of the newest entry no longer held: everything at or below
        #: it lives in the state machine's snapshot. ``Zxid.ZERO`` when the
        #: log still starts at the beginning of history.
        self.base = Zxid.ZERO
        #: Zxid of the newest entry; ``base`` when none is held.
        self.last_zxid = Zxid.ZERO
        # epoch -> position of that epoch's first entry minus its counter.
        # An offset may outlive its entries (truncation): lookups check the
        # entry they land on, and re-opening the epoch overwrites it.
        self._offsets: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def append(self, zxid: Zxid, txn: Any) -> LogEntry:
        """Append the successor of the log's tail.

        Inside an epoch that is ``counter + 1``; a later epoch starts at
        counter 1. A log with no tail at all (empty, nothing dropped) takes
        any first entry. Anything else would leave a hole and raises
        ``ValueError``.
        """
        entries = self.entries
        epoch, counter = zxid
        last_epoch, last_counter = self.last_zxid
        if not last_epoch and not entries:
            follows = True
        elif epoch == last_epoch:
            follows = counter == last_counter + 1
        else:
            follows = epoch > last_epoch and counter == 1
        if not follows:
            raise ValueError(f"zxid {zxid} does not follow log tail {self.last_zxid}")
        if epoch != last_epoch or not entries:
            self._offsets[epoch] = len(entries) - counter
        entry = LogEntry(zxid, txn)
        entries.append(entry)
        self.last_zxid = zxid
        return entry

    def position_of(self, zxid: Zxid) -> int:
        """Index of the entry with exactly ``zxid``; -1 if not held."""
        epoch, counter = zxid
        offset = self._offsets.get(epoch)
        if offset is not None:
            index = offset + counter
            entries = self.entries
            if 0 <= index < len(entries) and entries[index].zxid == zxid:
                return index
        return -1

    def position_after(self, zxid: Zxid) -> int:
        """Index of the first entry with zxid strictly greater than ``zxid``."""
        index = self.position_of(zxid)
        if index >= 0:
            return index + 1
        return bisect_right(self.entries, zxid, key=_zxid_of)

    def contains(self, zxid: Zxid) -> bool:
        return self.position_of(zxid) >= 0

    def get(self, zxid: Zxid) -> Optional[LogEntry]:
        index = self.position_of(zxid)
        return self.entries[index] if index >= 0 else None

    def entries_after(self, zxid: Zxid) -> List[LogEntry]:
        """All held entries with zxid strictly greater than ``zxid``."""
        return self.entries[self.position_after(zxid):]

    def truncate_after(self, zxid: Zxid) -> List[LogEntry]:
        """Drop entries after ``zxid``; returns what was dropped."""
        entries = self.entries
        cut = self.position_after(zxid)
        dropped = entries[cut:]
        if dropped:
            del entries[cut:]
            self.last_zxid = entries[-1].zxid if entries else self.base
        return dropped

    def drop_before(self, position: int) -> None:
        """Compaction: forget the first ``position`` entries.

        The caller's state machine has applied them, so its snapshot holds
        their effect; the newest one becomes the ``base``.
        """
        entries = self.entries
        self.base = entries[position - 1].zxid
        del entries[:position]
        oldest = self.base.epoch
        self._offsets = {
            epoch: offset - position
            for epoch, offset in self._offsets.items()
            if epoch >= oldest
        }

    def replace_all(self, entries: List[LogEntry], base: Zxid = Zxid.ZERO) -> None:
        """Install a snapshot's log: the ``entries`` above ``base``.

        The entries must be strictly increasing, above ``base``, and
        contiguous inside each epoch; the first may open an epoch at any
        counter.
        """
        offsets: Dict[int, int] = {}
        previous = base
        for index, entry in enumerate(entries):
            epoch, counter = entry.zxid
            if entry.zxid <= previous:
                raise ValueError("snapshot entries not strictly increasing")
            if epoch not in offsets:
                offsets[epoch] = index - counter
            elif offsets[epoch] + counter != index:
                raise ValueError(
                    f"snapshot has a hole before {entry.zxid} in epoch {epoch}"
                )
            previous = entry.zxid
        self.entries[:] = entries
        self._offsets = offsets
        self.base = base
        self.last_zxid = previous

    def tail(self, count: int) -> List[LogEntry]:
        return self.entries[-count:] if count > 0 else []
