"""The Zab peer state machine.

One :class:`ZabPeer` per server. A peer is LOOKING until an election
completes, then LEADING or FOLLOWING (or OBSERVING for non-voting learners).
The peer owns a durable transaction log; the replicated state machine above
it registers ``on_commit`` and applies transactions in commit (zxid) order.

The state machine's own state is the snapshot. Nothing applies to a crashed
peer, so a restart keeps that state and resumes at the applied point (as
ZooKeeper loads its latest snapshot and replays the log suffix; apply is
deterministic). The log keeps only a suffix: applied entries more than
:data:`repro.substrate.peer.DIFF_WINDOW` below the apply cursor are
dropped, and a learner whose tail the log no longer reaches gets a SNAP —
a copy of the leader's state (``snapshot_state``) that it takes with
``install_state``.

Protocol structure follows Zab's four phases (election, discovery,
synchronization, broadcast); see the package docstring for the mapping.
The first three live in :mod:`repro.zab.sync` (the :class:`Sync` mixin);
this module holds the peer's state, its message loop and broadcast.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Message, Network
from repro.sim.kernel import Environment, Ticker
from repro.substrate import peer as substrate
from repro.substrate.peer import Peer, PeerState, submit_dedup_id
from repro.zab.config import EnsembleConfig
from repro.zab.log import TxnLog
from repro.zab.messages import (
    Ack,
    AckEpoch,
    AckNewLeader,
    Commit,
    Diff,
    FollowerInfo,
    Inform,
    LeaderInfo,
    NewLeader,
    Ping,
    Pong,
    Propose,
    Snap,
    SubmitRequest,
    Trunc,
    UpToDate,
    Vote,
    VoteNotification,
)
from repro.zab.sync import Sync
from repro.zab.zxid import Zxid

__all__ = ["ZabPeer"]


class ZabPeer(Sync, Peer):
    """A single Zab server: voter or observer."""

    layer = "zab"

    def __init__(
        self,
        env: Environment,
        net: Network,
        addr: NodeAddress,
        config: EnsembleConfig,
        name: str = "",
    ):
        super().__init__(env, net, addr, config, name)

        # Message-type handler table, built once: the inbox consumer looks
        # a handler up for every delivered message.
        self._handlers: Dict[type, Callable[[NodeAddress, Any], None]] = {
            VoteNotification: self._on_vote_notification,
            FollowerInfo: self._on_follower_info,
            LeaderInfo: self._on_leader_info,
            AckEpoch: self._on_ack_epoch,
            Diff: self._on_diff,
            Trunc: self._on_trunc,
            Snap: self._on_snap,
            NewLeader: self._on_new_leader,
            AckNewLeader: self._on_ack_new_leader,
            UpToDate: self._on_up_to_date,
            Propose: self._on_propose,
            Ack: self._on_ack,
            Commit: self._on_commit_msg,
            Inform: self._on_inform,
            SubmitRequest: self._on_submit_request,
            Ping: self._on_ping,
            Pong: self._on_pong,
        }

        # Durable state (survives crash/restart): the log, the epochs, and
        # the applied point the state machine above holds its state at.
        self.log = TxnLog()
        self.accepted_epoch = 0
        self._last_applied = Zxid.ZERO
        # Apply cursor: the position of the next entry to apply. Invariant:
        # ``log.entries[_cursor - 1].zxid == _last_applied``, or zero when
        # the applied point is the log's base.
        self._cursor = 0
        # True while _apply_up_to delivers: an on_commit that proposes on a
        # one-voter ensemble applies inside it, and only the outermost call
        # may compact the log under the cursor.
        self._applying = False

        # Volatile state.
        self.leader_addr: Optional[NodeAddress] = None
        self.last_committed = Zxid.ZERO
        self._quorum = config.quorum_size

        # Election state.
        self._round = 0
        self._vote: Optional[Vote] = None
        self._round_votes: Dict[NodeAddress, Vote] = {}

        # Leader state.
        self._next_counter = 0
        # Proposals awaiting quorum, in order.
        self._pending: Deque[Zxid] = deque()
        self._acks: Dict[Zxid, Set[NodeAddress]] = {}
        self._proposed_at: Dict[Zxid, float] = {}
        # Active broadcast recipients, one sorted tuple per role
        # (_join_fanout keeps them).
        self._fanout_followers: Tuple[NodeAddress, ...] = ()
        self._fanout_observers: Tuple[NodeAddress, ...] = ()
        self._discovery_epochs: Dict[NodeAddress, int] = {}
        self._synced_to: Dict[NodeAddress, Zxid] = {}
        self._newleader_acks: Set[NodeAddress] = set()
        self._epoch_established = False
        self._broadcast_active = False
        self._last_heard: Dict[NodeAddress, float] = {}

        # Follower/observer state.
        self._last_leader_contact = 0.0
        self._last_resync_request = -1e18

        # Metrics.
        self.elections_completed = 0

    # ------------------------------------------------------------------ API

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ZabPeer {self.addr} {self.state.value} epoch={self.current_epoch}>"

    @property
    def is_leader(self) -> bool:
        return self.state == PeerState.LEADING and self._broadcast_active

    @property
    def last_zxid(self) -> Zxid:
        return self.log.last_zxid

    def _resume(self, restarted: bool) -> None:
        if restarted:
            # The log, the epochs and the applied point are retained.
            self.last_committed = self._last_applied
        self._last_leader_contact = self.env.now
        if self.is_observer:
            if restarted:
                self.leader_addr = None
                self._reset_leader_state()
            self._set_state(PeerState.OBSERVING)
        else:
            # Forgets the leader and the leader state, restarted or not.
            self._enter_looking()
        self._ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms, self._on_tick
        )

    def submit(self, txn: Any) -> Zxid:
        """Leader-only: broadcast ``txn``; returns its zxid."""
        if not self.is_leader:
            raise RuntimeError(f"{self.name} is not an active leader")
        return self._propose(txn)

    def forward_submit(self, txn: Any) -> None:
        """Follower/observer: forward a transaction to the current leader."""
        if self.leader_addr is None:
            raise RuntimeError(f"{self.name} knows no leader")
        self._send(self.leader_addr, SubmitRequest(self.addr, txn))

    # -------------------------------------------------------------- plumbing

    def _reset_leader_state(self) -> None:
        self._pending = deque()
        self._acks = {}
        self._proposed_at = {}
        self._recent_submits = {}
        self._submit_order = deque()
        self._fanout_followers = ()
        self._fanout_observers = ()
        self._discovery_epochs = {}
        self._synced_to = {}
        self._newleader_acks = set()
        self._epoch_established = False
        self._broadcast_active = False
        self._last_heard = {}

    # -------------------------------------------------------------- processes

    def _on_envelope(self, msg: Message) -> None:
        # Inbox consumer: one hop from the delivered (src, dst, body) to
        # its handler. A crashed peer consumes and ignores.
        if self._alive:
            src, _dst, body = msg
            handler = self._handlers.get(body.__class__)
            if handler is None:
                raise ValueError(f"{self.name}: unhandled message {body!r}")
            handler(src, body)

    def _on_tick(self) -> None:
        now = self.env.now
        timeout = self.config.election_timeout_ms
        if self.state == PeerState.LOOKING:
            self._broadcast_vote()
        elif self.state == PeerState.LEADING:
            send, addr = self.net.send, self.addr
            ping = Ping(addr, self.current_epoch, self.last_committed)
            for member in self._fanout_followers:
                send(addr, member, ping)
            for member in self._fanout_observers:
                send(addr, member, ping)
            if self._broadcast_active:
                self._retransmit_pending()
                heard = sum(
                    1
                    for voter in self.config.voters
                    if voter != self.addr
                    and now - self._last_heard.get(voter, now) <= timeout
                )
                # Count ourselves; step down if we cannot reach a quorum.
                if heard + 1 < self._quorum:
                    self._enter_looking()
        elif self.state == PeerState.FOLLOWING:
            if now - self._last_leader_contact > timeout:
                self._enter_looking()
        elif self.state == PeerState.OBSERVING:
            if now - self._last_leader_contact > timeout:
                # Probe the voters for the current leader.
                for voter in self.config.voters:
                    self._send(
                        voter,
                        FollowerInfo(self.addr, self.accepted_epoch, self.last_zxid),
                    )

    # -------------------------------------------------------------- broadcast

    def _propose(self, txn: Any) -> Zxid:
        self._remember_submit(submit_dedup_id(txn))
        self._next_counter += 1
        zxid = Zxid(self.current_epoch, self._next_counter)
        self.log.append(zxid, txn)
        self._pending.append(zxid)
        addr = self.addr
        self._acks[zxid] = {addr}
        self._proposed_at[zxid] = self.env.now
        if self._alive:
            send = self.net.send
            message = Propose(addr, zxid, txn)
            for follower in self._fanout_followers:
                send(addr, follower, message)
        if self._quorum == 1:
            # Our own ack is the only one so far: on any larger ensemble
            # the proposal matures in _on_ack.
            self._maybe_commit()
        return zxid

    def _retransmit_pending(self) -> None:
        """Re-propose pending transactions whose acks are overdue.

        Under a lossy link a PROPOSE (or its ACK) can vanish; without
        retransmission the quorum never forms and the write stalls forever.
        Only followers that have not acked are re-sent; duplicates are
        harmless because followers re-ack anything already in their log.
        """
        now = self.env.now
        overdue = 2.0 * self.config.heartbeat_interval_ms
        for zxid in self._pending:
            if now - self._proposed_at.get(zxid, now) < overdue:
                continue
            entry = self.log.get(zxid)
            if entry is None:
                continue
            self._proposed_at[zxid] = now
            message = Propose(self.addr, zxid, entry.txn)
            acked = self._acks.get(zxid, set())
            for follower in self._fanout_followers:
                if follower not in acked:
                    self._send(follower, message)
                    self.proposals_retransmitted += 1

    def _request_resync(self) -> None:
        """Ask the leader to re-sync us (rate-limited).

        Used when a proposal or commit arrives that our log cannot accept —
        something before it was lost on the wire. Reuses the late-joiner
        path: FOLLOWERINFO -> LEADERINFO -> ACKEPOCH -> DIFF/SNAP.
        """
        if self.leader_addr is None:
            return
        now = self.env.now
        if now - self._last_resync_request < self.config.election_timeout_ms / 2.0:
            return
        self._last_resync_request = now
        self._send(
            self.leader_addr,
            FollowerInfo(self.addr, self.accepted_epoch, self.last_zxid),
        )

    @staticmethod
    def _follows(last: Zxid, nxt: Zxid) -> bool:
        """Is ``nxt`` the immediate successor of ``last`` in zxid order?"""
        if nxt.epoch == last.epoch:
            return nxt.counter == last.counter + 1
        return nxt.epoch > last.epoch and nxt.counter == 1

    def _on_propose(self, src: NodeAddress, msg: Propose) -> None:
        leader = self.leader_addr
        if (
            src is not leader and src != leader
        ) or self.state != PeerState.FOLLOWING:
            return
        self._last_leader_contact = self.env.now
        log = self.log
        zxid = msg.zxid
        last = log.last_zxid
        if zxid > last:
            # _follows(last, zxid), inlined: a later epoch opens at 1.
            if zxid.counter != (
                last.counter + 1 if zxid.epoch == last.epoch else 1
            ):
                # Gap: a proposal in between was lost. Never append out of
                # order — the log must stay contiguous — ask the leader to
                # resync instead.
                self._request_resync()
                return
            log.append(zxid, msg.txn)
        # Ack what we hold, newly appended or not: re-acking a duplicate or
        # retransmission keeps a lost ACK from stalling the quorum forever.
        if self._alive:
            addr = self.addr
            self.net.send(addr, src, Ack(addr, zxid))

    def _on_ack(self, src: NodeAddress, msg: Ack) -> None:
        if self.state != PeerState.LEADING:
            return
        self._last_heard[src] = self.env.now
        acked = self._acks.get(msg.zxid)
        if acked is not None:
            acked.add(src)
            self._maybe_commit()

    def _maybe_commit(self) -> None:
        """Commit pending proposals in zxid order as quorums form.

        A same-instant burst of acks can mature several proposals at once:
        they are applied in one pass and each follower receives a single
        cumulative Commit for the newest matured zxid (followers apply
        commit *ranges*, see :meth:`_on_commit_msg`). Observers still get
        one Inform per entry — Inform carries the txn payload.
        """
        pending = self._pending
        acks = self._acks
        quorum = self._quorum
        matured = 0
        zxid = None
        while pending:
            head = pending[0]
            if len(acks.get(head, ())) < quorum:
                break
            zxid = pending.popleft()
            acks.pop(zxid, None)
            self._proposed_at.pop(zxid, None)
            matured += 1
        if zxid is None:
            return
        self.last_committed = zxid
        self._apply_up_to(zxid)
        if not self._alive:
            return
        send, addr = self.net.send, self.addr
        commit = Commit(addr, zxid)
        for follower in self._fanout_followers:
            send(addr, follower, commit)
        if self._fanout_observers:
            # Pending proposals sit side by side in the log, so the matured
            # ones are the slice ending at the newest.
            end = self.log.position_of(zxid) + 1
            assert end >= matured
            committed = self.log.entries[end - matured:end]
            for observer in self._fanout_observers:
                for entry in committed:
                    send(addr, observer, Inform(addr, entry.zxid, entry.txn))

    def _on_commit_msg(self, src: NodeAddress, msg: Commit) -> None:
        leader = self.leader_addr
        if src is not leader and src != leader:
            return
        self._last_leader_contact = self.env.now
        zxid = msg.zxid
        if zxid <= self.last_committed:
            return  # duplicate commit
        if self.log.position_of(zxid) < 0:
            # The proposal itself was lost: don't advance the commit point
            # past entries we don't hold — resync with the leader instead.
            self._request_resync()
            return
        self.last_committed = zxid
        self._apply_up_to(zxid)

    def _on_inform(self, src: NodeAddress, msg: Inform) -> None:
        leader = self.leader_addr
        if self.state != PeerState.OBSERVING or (
            src is not leader and src != leader
        ):
            return
        self._last_leader_contact = self.env.now
        zxid = msg.zxid
        last = self.log.last_zxid
        if zxid > last:
            if not self._follows(last, zxid):
                # Gap: an Inform in between was lost. Appending past it
                # would apply past the hole and put our tail beyond what a
                # later DIFF could fill — resync like a follower does.
                self._request_resync()
                return
            self.log.append(zxid, msg.txn)
        if zxid > self.last_committed:
            self.last_committed = zxid
        self._apply_up_to(zxid)

    def _on_submit_request(self, src: NodeAddress, msg: SubmitRequest) -> None:
        if not self.is_leader:
            return  # sender will retry after its timeout
        dedup_id = submit_dedup_id(msg.txn)
        if dedup_id is not None and dedup_id in self._recent_submits:
            # A retransmitted forward of a transaction we already took in.
            self.duplicate_submits_dropped += 1
            return
        self._remember_submit(dedup_id)
        if self.on_submit is not None:
            self.on_submit(msg.txn)
        else:
            self._propose(msg.txn)

    def _apply_up_to(self, zxid: Zxid) -> None:
        """Deliver every logged entry up to ``zxid`` not yet delivered.

        Walks forward from the apply cursor. The cursor is re-read after
        each delivery: ``on_commit`` may propose, and on a one-voter
        ensemble that proposal commits and applies inside the call. Only
        the outermost call compacts the log, after its walk.
        """
        if zxid <= self._last_applied:
            return
        on_commit = self.on_commit
        if on_commit is None:
            self._last_applied = zxid
            self._cursor = self.log.position_after(zxid)
            return
        entries = self.log.entries
        # Anything appended from here on is a newer proposal: past ``zxid``.
        end = len(entries)
        outermost = not self._applying
        self._applying = True
        while self._cursor < end:
            entry = entries[self._cursor]
            entry_zxid = entry.zxid
            if entry_zxid > zxid:
                break
            self._cursor += 1
            self._last_applied = entry_zxid
            self.commits_delivered += 1
            if self.sentinel is not None:
                self.sentinel.on_peer_commit(self, entry_zxid, entry.txn)
            on_commit(entry_zxid, entry.txn)
        if outermost:
            self._applying = False
            window = substrate.DIFF_WINDOW
            if self._cursor > 2 * window:
                # The state holds what we drop; keep a window for DIFFs.
                self.log.drop_before(self._cursor - window)
                self._cursor = window

    # -------------------------------------------------------------- liveness

    def _on_ping(self, src: NodeAddress, msg: Ping) -> None:
        leader = self.leader_addr
        if src is not leader and src != leader:
            return
        self._last_leader_contact = self.env.now
        committed = msg.last_committed
        if (
            committed is not None
            and committed > self.last_committed
            and self.state in (PeerState.FOLLOWING, PeerState.OBSERVING)
        ):
            if self.log.contains(committed):
                # A lost Commit/UpToDate: the entries are here, advance.
                self.last_committed = committed
                self._apply_up_to(committed)
            else:
                # The leader committed entries we never received.
                self._request_resync()
        self._send(src, Pong(self.addr, self.current_epoch))

    def _on_pong(self, src: NodeAddress, msg: Pong) -> None:
        if self.state == PeerState.LEADING:
            self._last_heard[src] = self.env.now
