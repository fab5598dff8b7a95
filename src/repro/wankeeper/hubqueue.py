"""The level-2 broker's wait queue and its wake-up index.

Transactions forwarded to the hub park here, in arrival order, until every
token they need is home. The hub pumps after every commit, so the queue
must answer two questions without walking itself: *is any queued entry
waiting for this key?* (the grant guard and the read-lease guard) and *has
anything happened that could change the verdict on an entry already found
blocked?* (whether a pump has to re-evaluate the queue at all).

Pure state — the broker logic in :mod:`repro.wankeeper.server` decides
what to serialize, recall and invalidate; this module only remembers who
waits for what, and whether the last verdicts still stand.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Set, Tuple

from repro.wankeeper.messages import wan_id_of
from repro.wankeeper.tokens import token_keys
from repro.zk.ops import CloseSessionOp, Txn

__all__ = ["HubQueue", "QueuedTxn"]


class QueuedTxn:
    """A transaction parked at the hub until its tokens come home.

    ``admin_keys``/``admin_grant`` implement the paper's primary-site
    assignment knob: a no-op transaction that forces the named keys'
    tokens to a chosen site regardless of the migration policy.

    ``needed`` is the token-key set the entry waits for, fixed at admission
    — except for a ``CloseSessionOp``, whose ephemerals are only known from
    the tree at the moment of each evaluation (``None`` here). Entries are
    compared by identity: two distinct entries never share a ``wan_id``.
    """

    __slots__ = ("txn", "origin_site", "admin_keys", "admin_grant",
                 "wan_id", "needed")

    def __init__(
        self,
        txn: Txn,
        origin_site: str,
        admin_keys: Optional[Tuple[str, ...]] = None,
        admin_grant: Optional[str] = None,
    ):
        self.txn = txn
        self.origin_site = origin_site
        self.admin_keys = admin_keys
        self.admin_grant = admin_grant
        self.wan_id = wan_id_of(txn)
        needed: Optional[Set[str]]
        if admin_keys is not None:
            needed = set(admin_keys)
        elif isinstance(txn.op, CloseSessionOp):
            needed = None
        else:
            needed = token_keys(txn.op)
        self.needed = needed


class HubQueue:
    """Insertion-ordered wait queue keyed by ``wan_id``.

    ``waiters`` counts, per token key, the queued entries whose fixed
    ``needed`` set contains it; ``tree_dependent`` holds the entries that
    have no fixed set. ``fresh`` lists entries no pump has looked at yet.

    ``stale`` and ``oldest_recall`` summarise every entry already found
    blocked: ``stale`` is raised by whoever moves a token or drops a read
    lease (the events that change a verdict), and ``oldest_recall`` is the
    earliest ``_recall_sent_at`` stamp among the keys those entries miss
    (the instant the next recall retry is measured from). While neither
    fires, re-evaluating a blocked entry cannot do anything.
    """

    __slots__ = ("entries", "fresh", "waiters", "tree_dependent", "stale",
                 "oldest_recall")

    def __init__(self) -> None:
        self.entries: Dict[Tuple[str, int], QueuedTxn] = {}
        self.fresh: List[QueuedTxn] = []
        self.waiters: Dict[str, int] = {}
        self.tree_dependent: Dict[Tuple[str, int], QueuedTxn] = {}
        self.stale = False
        self.oldest_recall = inf

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, wan_id: Tuple[str, int]) -> bool:
        return wan_id in self.entries

    def add(self, entry: QueuedTxn) -> None:
        self.entries[entry.wan_id] = entry
        self.fresh.append(entry)
        if entry.needed is None:
            self.tree_dependent[entry.wan_id] = entry
            return
        waiters = self.waiters
        for key in entry.needed:  # lint: iteration-order-ok (commutative counts)
            waiters[key] = waiters.get(key, 0) + 1

    def remove(self, entry: QueuedTxn) -> None:
        del self.entries[entry.wan_id]
        if entry.needed is None:
            del self.tree_dependent[entry.wan_id]
            return
        waiters = self.waiters
        for key in entry.needed:  # lint: iteration-order-ok (commutative counts)
            count = waiters[key] - 1
            if count:
                waiters[key] = count
            else:
                del waiters[key]

    def begin_pass(self) -> List[QueuedTxn]:
        """Snapshot for a full FIFO pass; the summaries restart with it.

        Cleared *before* the pass runs, so a token that comes home while
        the pass is under way leaves the queue stale for the next one.
        """
        self.stale = False
        self.oldest_recall = inf
        self.fresh = []
        return list(self.entries.values())

    def take_fresh(self) -> List[QueuedTxn]:
        """The entries admitted since the last pump looked."""
        fresh = self.fresh
        if fresh:
            self.fresh = []
        return fresh

    def note_recall(self, stamp: float) -> None:
        """A blocked entry misses a key last recalled at ``stamp``."""
        if stamp < self.oldest_recall:
            self.oldest_recall = stamp
