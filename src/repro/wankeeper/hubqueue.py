"""The level-2 broker's wait queue, its wake-up index and its write path.

Transactions forwarded to the hub park here, in arrival order, until every
token they need is home. The hub pumps after every commit, so the queue
must answer two questions without walking itself: *is any queued entry
waiting for this key?* (the grant guard and the read-lease guard) and *has
anything happened that could change the verdict on an entry already found
blocked?* (whether a pump has to re-evaluate the queue at all).

:class:`HubQueue` is pure state — who waits for what, and whether the last
verdicts still stand; :class:`HubBroker` decides what to serialize, recall
and invalidate.
"""

from __future__ import annotations

import dataclasses
from math import inf
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.topology import NodeAddress
from repro.wankeeper.messages import (
    HUB,
    TokenGrant,
    TokenRecall,
    WanSubmit,
    WanTxn,
)
from repro.wankeeper.policy import MigrationPolicy
from repro.wankeeper.tokens import token_key, token_keys
from repro.zk.ops import CloseSessionOp, Txn

__all__ = ["HubBroker", "HubQueue", "QueuedTxn"]


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
        self.wan_id = txn.key
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
    earliest ``recall_sent_at`` stamp among the keys those entries miss
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


class HubBroker:
    """The level-2 leader's write path: admit, pump, recall, serialize.

    Built by the host's leader-state reset: a new leader starts with an
    empty queue and an unlearned policy. Reads from the host server:
    ``env.now``, ``net.send``, ``client_addr`` / ``site`` / ``name``,
    ``wan.recall_retry_ms``, ``peer.is_leader``, ``_propose``, ``tree``,
    ``hub_tokens``, ``current_l2_site``, ``_grant_counts``,
    ``_seen_wan_ids``, ``_site_leaders``, ``_on_token_recall`` (self-
    recall), ``_reads`` (lease holders; None in "local" read mode),
    ``sentinel``, ``_trace``; it bumps the host's public counters
    ``tokens_granted`` / ``tokens_recalled``.
    """

    def __init__(self, host: Any) -> None:
        self.host = host
        self.policy: MigrationPolicy = host.wan.policy_factory()
        self.queue = HubQueue()
        # Re-entrancy latch: serializing a queue entry can commit
        # synchronously (single-voter ensembles), and the commit hook
        # pumps again — which would mutate the queue mid-iteration.
        self.pumping = False
        self.pump_again = False
        # Txn ids serialized (proposed) but not yet committed: a retried
        # WanSubmit arriving in that window must not re-serialize.
        self.inflight_ids: Set[Tuple[str, int]] = set()
        # Keys of hub-serialized writes proposed, not yet committed
        # (lease grants are withheld for them).
        self.inflight_keys: Dict[str, int] = {}
        self.recall_sent_at: Dict[str, float] = {}

    def on_submit(self, src: NodeAddress, msg: WanSubmit) -> None:
        self.host._site_leaders[msg.site] = msg.sender
        self.admit(msg.txn, msg.site)

    def admit(self, txn: Txn, origin_site: str) -> None:
        wid = txn.key
        if (
            wid in self.host._seen_wan_ids
            or wid in self.queue
            or wid in self.inflight_ids
        ):
            return
        self.queue.add(QueuedTxn(txn, origin_site))
        self.pump()

    def absorbed(self, wan_id: Tuple[str, int]) -> None:
        """A site's own commit of the queued ``wan_id`` reached the hub:
        drop the queued copy.

        A site forwards a write it cannot admit yet, and its leader admits
        the same write locally if the accepting server re-routes it after
        the token it waited for has landed (a grant overtaken by its
        recall, a site leader crash in between). Serializing the queued
        copy as well would commit the write twice, and the origin site
        drops the second copy with the grant it carries: the hub would
        count one grant more than the site, and every later recall of the
        key would wait for a grant that never comes.

        The hub commits the local copy first: the queued copy waits for a
        token the site holds, and ``_on_token_return`` accepts the site's
        return only once its stream is absorbed up to the release. A
        level-2 promotion is the exception: its inventory sync
        (``TokenSyncOp``) takes a token home without waiting for the
        site's stream.
        """
        self.queue.remove(self.queue.entries[wan_id])

    def pin(self, txn: Txn, key: str, site: str) -> None:
        """Queue the admin no-op ``txn`` that moves ``key``'s token to ``site``."""
        self.queue.add(QueuedTxn(txn, self.host.site, (key,), admin_grant=site))
        self.pump()

    def pump(self) -> None:
        """Serialize every queued txn whose tokens are home; recall the rest.

        A full FIFO pass runs only when ``_pass_due``; otherwise the
        verdict on every entry already found blocked still stands, and
        only entries admitted since the last pump are evaluated.
        """
        if not self.host.peer.is_leader or not self.queue.entries:
            return
        if self.pumping:
            # Nested pump (a serialize committed synchronously and its
            # commit hook pumped): flag the outer loop for another pass
            # instead of mutating the queue mid-iteration.
            self.pump_again = True
            return
        self.pumping = True
        try:
            progress = True
            while progress:
                progress = False
                self.pump_again = False
                queue = self.queue
                if self._pass_due(queue):
                    batch = queue.begin_pass()
                else:
                    batch = queue.take_fresh()
                    if not batch:
                        break
                for entry in batch:
                    if queue.entries.get(entry.wan_id) is not entry:
                        continue  # removed by a deeper call this pass
                    if self._try(entry):
                        progress = True
                progress = progress or self.pump_again
        except BaseException:
            # Entries after the failure were never looked at.
            self.queue.stale = True
            raise
        finally:
            self.pumping = False

    def _pass_due(self, queue: HubQueue) -> bool:
        """Can re-evaluating an already-blocked entry do anything?

        Only if a token moved or a read lease dropped since the last full
        pass began (``stale``), leases can expire by the clock, a queued
        session teardown re-reads the tree, or the oldest outstanding
        recall is due a retry — the same comparison ``request_recalls``
        makes per key, applied to the minimum stamp.
        """
        host = self.host
        return (
            queue.stale
            or (host._reads is not None and bool(host._reads.holders))
            or bool(queue.tree_dependent)
            or not (host.env.now - queue.oldest_recall < host.wan.recall_retry_ms)
        )

    def _try(self, entry: QueuedTxn) -> bool:
        """Serialize ``entry`` if nothing blocks it; else chase what does."""
        host = self.host
        needed = entry.needed
        if needed is None:
            needed = self._ephemeral_keys(entry.txn.op.session_id)
        at_hub = host.hub_tokens.at_hub
        missing = {key for key in needed if not at_hub(key)}
        leases = host._reads
        lease_holders = leases.live_holders(needed) if leases is not None else None
        if missing or lease_holders:
            if missing:
                self.queue.note_recall(self.request_recalls(missing))
            if lease_holders:
                # §VI: a write needs all read tokens back first.
                leases.send_invalidates(lease_holders)
            return False
        self.queue.remove(entry)
        self.serialize(
            entry.txn, needed, entry.origin_site,
            admin_grant=entry.admin_grant,
        )
        return True

    def request_recalls(self, keys: Set[str]) -> float:
        """Recall ``keys`` from their owners, at most once per retry period.

        Returns the oldest recall stamp among the keys still away: no
        retry for any of them is due before that plus ``recall_retry_ms``.
        """
        host = self.host
        now = host.env.now
        oldest = inf
        by_site: Dict[str, List[str]] = {}
        for key in sorted(keys):
            owner = host.hub_tokens.where(key)
            if owner is None:
                continue
            last = self.recall_sent_at.get(key, -1e18)
            if now - last < host.wan.recall_retry_ms:
                if last < oldest:
                    oldest = last
                continue
            self.recall_sent_at[key] = now
            if now < oldest:
                oldest = now
            by_site.setdefault(owner, []).append(key)
        for site, site_keys in by_site.items():
            recall = TokenRecall(
                tuple(site_keys),
                tuple(host._grant_counts.get((key, site), 0) for key in site_keys),
            )
            if site == host.site:
                # A hub can find its own site in the location map — a
                # freshly promoted level-2 still owns tokens granted while
                # it was level-1, and fault injection can corrupt the map
                # the same way. There is no remote leader to message;
                # run the level-1 recall handler directly.
                host.tokens_recalled += len(site_keys)
                host._on_token_recall(host.client_addr, recall)
                continue
            leader = host._site_leaders.get(site)
            if leader is not None:
                host.tokens_recalled += len(site_keys)
                host.net.send(host.client_addr, leader, recall)
        return oldest

    def _ephemeral_keys(self, session_id: str) -> Set[str]:
        """Tokens a session teardown needs, per the tree as it is now."""
        return {
            token_key(path) for path in self.host.tree.ephemerals_of(session_id)
        }

    def key_wanted(self, key: str) -> bool:
        queue = self.queue
        if key in queue.waiters:
            return True
        return bool(queue.tree_dependent) and any(
            key in self._ephemeral_keys(entry.txn.op.session_id)
            for entry in queue.tree_dependent.values()
        )

    def serialize(
        self,
        txn: Txn,
        needed: Set[str],
        origin_site: str,
        admin_grant: Optional[str] = None,
    ) -> None:
        """Commit a txn in the hub ensemble with policy-decided grants."""
        host = self.host
        l2_site = host.current_l2_site
        ordered = sorted(needed)
        grants: List[TokenGrant] = []
        if admin_grant is not None:
            # Primary-site assignment knob: force the placement.
            if admin_grant != l2_site:
                grants = [TokenGrant(key, admin_grant) for key in ordered]
        elif origin_site != l2_site and not isinstance(txn.op, CloseSessionOp):
            # (The hub site's own locality needs no grant, and teardown of
            # dying records is not an access pattern.)
            leases = host._reads
            for key in ordered:
                migrate = self.policy.observe_and_decide(key, origin_site)
                if (
                    migrate
                    and not self.key_wanted(key)
                    and not (leases is not None and leases.holders.get(key))
                ):
                    grants.append(TokenGrant(key, origin_site))
        if host.sentinel is not None:
            host.sentinel.on_hub_serialize(host, needed)
        if host._trace is not None:
            host._trace.emit(host.env.now, "wan", "hub-serialize", host.name,
                             {"keys": ordered,
                              "origin": origin_site,
                              "grants": [(g.key, g.site) for g in grants]})
        self.inflight_ids.add(txn.key)
        inflight = self.inflight_keys
        for key in ordered:
            inflight[key] = inflight.get(key, 0) + 1
        op = txn.op
        if isinstance(op, CloseSessionOp) and op.paths is None:
            # Pin the exact ephemeral set so all sites delete the same nodes.
            pinned = dataclasses.replace(
                op, paths=tuple(host.tree.ephemerals_of(op.session_id))
            )
            txn = txn.replace_op(pinned)
        host.tokens_granted += len(grants)
        host._propose(
            WanTxn(
                txn=txn,
                serialized_at=HUB,
                grants=tuple(grants),
            )
        )

    def committed(self, wan_id: Tuple[str, int], keys: Set[str]) -> None:
        """A txn serialized here committed: stop shadowing it (see __init__)."""
        self.inflight_ids.discard(wan_id)
        inflight = self.inflight_keys
        for key in keys:  # lint: iteration-order-ok (commutative counts)
            count = inflight.get(key, 0) - 1
            if count > 0:
                inflight[key] = count
            else:
                inflight.pop(key, None)
