"""The Zab peer state machine.

One :class:`ZabPeer` per server. A peer is LOOKING until an election
completes, then LEADING or FOLLOWING (or OBSERVING for non-voting learners).
The peer owns a durable transaction log; the replicated state machine above
it registers ``on_commit`` and applies transactions in commit (zxid) order.

The state machine's own state is the snapshot. Nothing applies to a crashed
peer, so a restart keeps that state and resumes at the applied point (as
ZooKeeper loads its latest snapshot and replays the log suffix; apply is
deterministic). The log keeps only a suffix: applied entries more than
:data:`DIFF_WINDOW` below the apply cursor are dropped, and a learner whose
tail the log no longer reaches gets a SNAP — a copy of the leader's state
(``snapshot_state``) that it takes with ``install_state``.

Protocol structure follows Zab's four phases (election, discovery,
synchronization, broadcast); see the package docstring for the mapping.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, Ticker
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
from repro.zab.zxid import Zxid

__all__ = ["PeerState", "ZabPeer"]


#: How many distinct forwarded-transaction ids a leader remembers for
#: duplicate suppression (bounds memory; far above any in-flight window).
SUBMIT_DEDUP_LIMIT = 4096

#: How many applied entries a peer keeps below its apply cursor, so that a
#: lagging learner still gets a DIFF rather than a SNAP (ZooKeeper's
#: committedLog keeps 500). Compaction drops them in chunks, once the
#: cursor passes twice this. The largest lag a learner syncs from in the
#: tier-1 fault suites is 220 entries (docs/PERFORMANCE.md, "Bounded
#: replica state").
DIFF_WINDOW = 1024


def submit_dedup_id(payload: Any) -> Optional[Tuple[Any, ...]]:
    """Stable identity of a forwarded transaction, for duplicate suppression.

    Client transactions are identified by ``(session_id, cxid)`` — the same
    tuple whether they travel bare (:class:`~repro.zk.ops.Txn`, its
    ``key``) or wrapped (``WanTxn.wan_id``, the wrapped txn's ``key``), so
    a retransmitted forward is recognized no matter how the leader first
    saw the transaction, and this table shares the tuple every replica's
    tables hold. Payloads without an identity (marker ops) return None and
    are never deduplicated.
    """
    wan_id = getattr(payload, "wan_id", None)
    if wan_id is not None:
        return tuple(wan_id)
    return getattr(payload, "key", None)


class PeerState(str, enum.Enum):
    LOOKING = "looking"
    FOLLOWING = "following"
    LEADING = "leading"
    OBSERVING = "observing"
    DOWN = "down"


class ZabPeer:
    """A single Zab server: voter or observer."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        addr: NodeAddress,
        config: EnsembleConfig,
        name: str = "",
    ):
        if not (config.is_voter(addr) or config.is_observer(addr)):
            raise ValueError(f"{addr} is not a member of the ensemble")
        self.env = env
        self.net = net
        self.addr = addr
        self.config = config
        self.name = name or str(addr)
        self.is_observer = config.is_observer(addr)

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

        self.inbox = net.register(addr)
        self.inbox.consume(self._on_envelope)

        # Durable state (survives crash/restart): the log, the epochs, and
        # the applied point the state machine above holds its state at.
        self.log = TxnLog()
        self.accepted_epoch = 0
        self.current_epoch = 0
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
        self.state = PeerState.DOWN
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
        # Recently proposed/forwarded txn ids (duplicate suppression for
        # retransmitted SubmitRequests under lossy links), and the same ids
        # oldest first for FIFO eviction. A dict, not a set: under this
        # churn a set's table grows to 4x its members.
        self._recent_submits: Dict[Tuple[Any, ...], None] = {}
        self._submit_order: Deque[Tuple[Any, ...]] = deque()
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

        # Hooks.
        self.on_commit: Optional[Callable[[Zxid, Any], None]] = None
        # SNAP: the leader ships snapshot_state() -- a copy of its state
        # machine's state at its applied point -- and a learner behind that
        # point hands it to install_state(state).
        self.snapshot_state: Optional[Callable[[], Any]] = None
        self.install_state: Optional[Callable[[Any], None]] = None
        # If set, forwarded SubmitRequests are routed through this hook on
        # the leader instead of being proposed directly (WanKeeper inserts
        # its token check here, mirroring the paper's request processor).
        self.on_submit: Optional[Callable[[Any], None]] = None
        self.on_state_change: Optional[Callable[["ZabPeer"], None]] = None
        self.on_leader_activated: Optional[Callable[["ZabPeer"], None]] = None

        # Metrics.
        self.commits_delivered = 0
        self.elections_completed = 0
        self.proposals_retransmitted = 0
        self.duplicate_submits_dropped = 0

        # Observability (repro.trace / repro.invariants); None keeps every
        # instrumentation point a single-branch no-op.
        self._trace = None
        self.sentinel = None

        self._alive = False
        self._ticker: Optional[Ticker] = None

    # ------------------------------------------------------------------ API

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ZabPeer {self.addr} {self.state.value} epoch={self.current_epoch}>"

    @property
    def is_leader(self) -> bool:
        return self.state == PeerState.LEADING and self._broadcast_active

    @property
    def last_zxid(self) -> Zxid:
        return self.log.last_zxid

    @property
    def is_alive(self) -> bool:
        return self._alive

    def start(self) -> None:
        """Boot the peer: spawn its message loop and timers."""
        if self._alive:
            raise RuntimeError(f"{self.name} already started")
        self._alive = True
        self._last_leader_contact = self.env.now
        if self.is_observer:
            self._set_state(PeerState.OBSERVING)
        else:
            self._enter_looking()
        self._ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms, self._on_tick
        )

    def crash(self) -> None:
        """Crash the peer: drop volatile state, close the inbox."""
        if not self._alive:
            return
        self._alive = False
        self._set_state(PeerState.DOWN)
        self.net.crash(self.addr)
        self._ticker.stop()

    def restart(self) -> None:
        """Restart after a crash; the log, the epochs and the applied point
        are retained, and delivery resumes after the applied point."""
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self.net.restart(self.addr)
        self.leader_addr = None
        self.last_committed = self._last_applied
        self._reset_leader_state()
        self._alive = True
        self._last_leader_contact = self.env.now
        if self.is_observer:
            self._set_state(PeerState.OBSERVING)
        else:
            self._enter_looking()
        self._ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms, self._on_tick
        )

    def submit(self, txn: Any) -> Zxid:
        """Leader-only: broadcast ``txn``; returns its zxid."""
        if not self.is_leader:
            raise RuntimeError(f"{self.name} is not an active leader")
        return self._propose(txn)

    def forward_submit(self, txn: Any, ctx: Any = None) -> None:
        """Follower/observer: forward a transaction to the current leader."""
        if self.leader_addr is None:
            raise RuntimeError(f"{self.name} knows no leader")
        self._send(self.leader_addr, SubmitRequest(self.addr, txn, ctx))

    # -------------------------------------------------------------- plumbing

    def _send(self, dst: NodeAddress, body: Any) -> None:
        if not self._alive:
            return
        self.net.send(self.addr, dst, body)

    def _set_state(self, state: PeerState) -> None:
        if state == self.state:
            return
        self.state = state
        if self._trace is not None:
            self._trace.emit(self.env.now, "zab", "state", self.name,
                             {"state": state.value,
                              "epoch": self.current_epoch})
        if self.on_state_change is not None:
            self.on_state_change(self)

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

    def _on_envelope(self, envelope) -> None:
        # Inbox consumer: one hop from the delivered envelope to its
        # handler. A crashed peer consumes and ignores.
        if self._alive:
            body = envelope.body
            handler = self._handlers.get(body.__class__)
            if handler is None:
                raise ValueError(f"{self.name}: unhandled message {body!r}")
            handler(envelope.src, body)

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
                    self._abandon_leadership()
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

    def _abandon_leadership(self) -> None:
        self._reset_leader_state()
        self._enter_looking()

    # -------------------------------------------------------------- election

    def _enter_looking(self) -> None:
        self.leader_addr = None
        self._reset_leader_state()
        self._set_state(PeerState.LOOKING)
        self._round += 1
        self._vote = Vote(self.addr, self.last_zxid)
        self._round_votes = {self.addr: self._vote}
        self._broadcast_vote()
        self._maybe_elect()

    def _broadcast_vote(self) -> None:
        if self._vote is None:
            return
        note = VoteNotification(self.addr, self._vote, self._round, self.state.value)
        for voter in self.config.voters:
            if voter != self.addr:
                self._send(voter, note)

    def _on_vote_notification(self, src: NodeAddress, msg: VoteNotification) -> None:
        if self.is_observer:
            return
        if self.state != PeerState.LOOKING:
            # Tell the looking peer about the established regime — but only
            # vouch for a leader we have *recently* heard from, or two
            # followers of a dead leader can redirect each other at it
            # forever instead of re-electing.
            if (
                msg.sender_state == PeerState.LOOKING.value
                and self.leader_addr is not None
                and self._regime_is_fresh()
            ):
                reply = VoteNotification(
                    self.addr,
                    Vote(self.leader_addr, self.last_zxid),
                    msg.round,
                    self.state.value,
                )
                self._send(src, reply)
            return

        if msg.sender_state in (PeerState.FOLLOWING.value, PeerState.LEADING.value):
            # An established regime exists: join it.
            self._join_leader(msg.vote.node)
            return

        if msg.round > self._round:
            self._round = msg.round
            own = Vote(self.addr, self.last_zxid)
            self._vote = msg.vote if msg.vote.beats(own) else own
            self._round_votes = {self.addr: self._vote, msg.sender: msg.vote}
            self._broadcast_vote()
        elif msg.round == self._round:
            self._round_votes[msg.sender] = msg.vote
            assert self._vote is not None
            if msg.vote.beats(self._vote):
                self._vote = msg.vote
                self._round_votes[self.addr] = self._vote
                self._broadcast_vote()
        else:
            # Stale round: help the sender catch up.
            self._broadcast_vote()
            return
        self._maybe_elect()

    def _maybe_elect(self) -> None:
        if self.state != PeerState.LOOKING or self._vote is None:
            return
        supporters = sum(
            1 for vote in self._round_votes.values() if vote == self._vote
        )
        if supporters < self._quorum:
            return
        self.elections_completed += 1
        if self._vote.node == self.addr:
            self._become_leader()
        else:
            self._join_leader(self._vote.node)

    def _become_leader(self) -> None:
        self._set_state(PeerState.LEADING)
        self.leader_addr = self.addr
        self._reset_leader_state()
        self._discovery_epochs = {self.addr: self.accepted_epoch}
        self._maybe_establish_epoch()

    def _join_leader(self, leader: NodeAddress) -> None:
        self._set_state(PeerState.FOLLOWING)
        self.leader_addr = leader
        self._last_leader_contact = self.env.now
        self._send(
            leader, FollowerInfo(self.addr, self.accepted_epoch, self.last_zxid)
        )

    # -------------------------------------------------------------- discovery

    def _regime_is_fresh(self) -> bool:
        """Did we hear from our leader recently enough to vouch for it?"""
        if self.state == PeerState.LEADING:
            return True
        return (
            self.env.now - self._last_leader_contact
            <= self.config.election_timeout_ms / 2.0
        )

    def _on_follower_info(self, src: NodeAddress, msg: FollowerInfo) -> None:
        if self.state != PeerState.LEADING:
            # Redirect: tell the sender about the leader we follow, if any.
            if (
                self.state == PeerState.FOLLOWING
                and self.leader_addr is not None
                and self._regime_is_fresh()
            ):
                self._send(
                    src,
                    VoteNotification(
                        self.addr,
                        Vote(self.leader_addr, self.last_zxid),
                        self._round,
                        self.state.value,
                    ),
                )
            return
        self._last_heard[src] = self.env.now
        if self.config.is_observer(src):
            # Observers don't gate epoch establishment; sync them once the
            # epoch is live.
            if self._epoch_established:
                self._send(src, LeaderInfo(self.addr, self.current_epoch))
            return
        self._discovery_epochs[src] = msg.accepted_epoch
        if self._epoch_established:
            self._send(src, LeaderInfo(self.addr, self.current_epoch))
        else:
            self._maybe_establish_epoch()

    def _maybe_establish_epoch(self) -> None:
        if self._epoch_established:
            return
        if len(self._discovery_epochs) < self._quorum:
            return
        new_epoch = max(self._discovery_epochs.values()) + 1
        self.accepted_epoch = new_epoch
        self.current_epoch = new_epoch
        self._next_counter = 0
        self._epoch_established = True
        for follower in self._discovery_epochs:
            if follower != self.addr:
                self._send(follower, LeaderInfo(self.addr, new_epoch))
        # The leader acks its own NEWLEADER.
        self._newleader_acks = {self.addr}
        self._maybe_activate_broadcast()

    def _on_leader_info(self, src: NodeAddress, msg: LeaderInfo) -> None:
        if self.state not in (PeerState.FOLLOWING, PeerState.OBSERVING):
            return
        if msg.new_epoch < self.accepted_epoch:
            return  # stale leader
        self.accepted_epoch = msg.new_epoch
        self.leader_addr = src
        self._last_leader_contact = self.env.now
        self._send(src, AckEpoch(self.addr, self.current_epoch, self.last_zxid))

    def _on_ack_epoch(self, src: NodeAddress, msg: AckEpoch) -> None:
        if self.state != PeerState.LEADING or not self._epoch_established:
            return
        self._last_heard[src] = self.env.now
        self._sync_follower(src, msg.last_zxid)

    # ---------------------------------------------------------- synchronization

    def _sync_follower(self, follower: NodeAddress, follower_last: Zxid) -> None:
        """Send DIFF/TRUNC/SNAP plus NEWLEADER to one follower.

        During active broadcast only the *committed* prefix is synced;
        in-flight proposals are re-proposed individually so the joiner votes
        on them like everyone else. The joiner joins the fan-out
        immediately — FIFO channels guarantee it sees sync before any
        subsequent proposal/commit, closing the join-window gap.
        """
        sync_to = self.last_committed if self._broadcast_active else self.last_zxid
        log = self.log
        if follower_last <= sync_to:
            # Below what the log still holds, or off our history: the
            # learner takes our state at the applied point, then the
            # suffix above it.
            diff = follower_last == log.base or log.contains(follower_last)
            start = follower_last if diff else self._last_applied
            suffix = [e for e in log.entries_after(start) if e.zxid <= sync_to]
            if diff:
                self._send(follower, Diff(self.addr, suffix))
            else:
                hook = self.snapshot_state
                state = hook() if hook is not None else None
                self._send(follower, Snap(self.addr, state, start, suffix))
        else:
            # Follower is ahead of our sync point: its extra entries were
            # never committed (quorum intersection); truncate them away.
            self._send(follower, Trunc(self.addr, sync_to))
        self._send(follower, NewLeader(self.addr, self.current_epoch))
        self._synced_to[follower] = sync_to
        if self._broadcast_active:
            # Join the fan-out now; ship the in-flight tail.
            self._join_fanout(follower)
            self._catch_up(follower)

    def _join_fanout(self, member: NodeAddress) -> None:
        """Add ``member`` to its role's fan-out tuple, kept sorted: set
        order is string hash order, which varies per interpreter
        (PYTHONHASHSEED) and would leak into the network jitter RNG's
        draw order."""
        if self.config.is_observer(member):
            if member not in self._fanout_observers:
                self._fanout_observers = tuple(
                    sorted((*self._fanout_observers, member)))
        elif member not in self._fanout_followers:
            self._fanout_followers = tuple(
                sorted((*self._fanout_followers, member)))

    def _catch_up(self, member: NodeAddress) -> None:
        """Ship everything the member missed since its recorded sync point."""
        synced_to = self._synced_to.get(member, Zxid.ZERO)
        if self.config.is_observer(member):
            for entry in self.log.entries_after(synced_to):
                if entry.zxid <= self.last_committed:
                    self._send(member, Inform(self.addr, entry.zxid, entry.txn))
                    self._synced_to[member] = entry.zxid
        else:
            committed_to = None
            for entry in self.log.entries_after(synced_to):
                self._send(member, Propose(self.addr, entry.zxid, entry.txn))
                if entry.zxid <= self.last_committed:
                    committed_to = entry.zxid
            if committed_to is not None:
                # One cumulative Commit after the proposals: the member log
                # now holds every entry up to it (FIFO link), and followers
                # apply commit ranges.
                self._send(member, Commit(self.addr, committed_to))
            self._synced_to[member] = self.log.last_zxid

    def _on_diff(self, src: NodeAddress, msg: Diff) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self._append_new(msg.entries)

    def _on_trunc(self, src: NodeAddress, msg: Trunc) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.log.truncate_after(msg.truncate_to)
        # Committed entries are never truncated, but the cursor's validity
        # should not rest on the leader being right about that.
        self._cursor = self.log.position_after(self._last_applied)
        self._append_new(msg.entries)

    def _append_new(self, entries: List[Any]) -> None:
        """Append the synced entries we do not hold yet.

        The leader cuts a DIFF/TRUNC suffix right after the tail we
        reported, so what is new follows our tail; the log raises on a
        hole rather than storing one.
        """
        log = self.log
        for entry in entries:
            if entry.zxid > log.last_zxid:
                log.append(entry.zxid, entry.txn)

    def _on_snap(self, src: NodeAddress, msg: Snap) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        installed = msg.zxid > self._last_applied
        if installed:
            # Our state jumps to the leader's applied point. Everything we
            # applied is committed, so it is inside the snapshot; a peer
            # that applied past it (and a duplicate of this message) keeps
            # its own state and only takes the log.
            self._last_applied = msg.zxid
            if self.install_state is not None:
                self.install_state(msg.state)
        self.log.replace_all(msg.entries, base=msg.zxid)
        self._cursor = self.log.position_after(self._last_applied)
        self.last_committed = self._last_applied
        if self._trace is not None:
            self._trace.emit(self.env.now, "zab", "snap", self.name,
                             {"zxid": str(msg.zxid), "installed": installed,
                              "entries": len(msg.entries)})

    def _on_new_leader(self, src: NodeAddress, msg: NewLeader) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.current_epoch = msg.epoch
        self._send(src, AckNewLeader(self.addr, msg.epoch))

    def _on_ack_new_leader(self, src: NodeAddress, msg: AckNewLeader) -> None:
        if self.state != PeerState.LEADING or msg.epoch != self.current_epoch:
            return
        self._last_heard[src] = self.env.now
        self._newleader_acks.add(src)
        if self._broadcast_active:
            # Late joiner: activate it immediately.
            self._activate_member(src)
            return
        self._maybe_activate_broadcast()

    def _maybe_activate_broadcast(self) -> None:
        if self._broadcast_active:
            return
        voter_acks = sum(
            1 for peer in self._newleader_acks if self.config.is_voter(peer)
        )
        if voter_acks < self._quorum:
            return
        self._broadcast_active = True
        # Entries surviving into the new epoch are now committed.
        self.last_committed = self.last_zxid
        self._apply_up_to(self.last_committed)
        for peer in list(self._newleader_acks):
            if peer != self.addr:
                self._activate_member(peer)
        if self.on_leader_activated is not None:
            self.on_leader_activated(self)

    def _activate_member(self, member: NodeAddress) -> None:
        self._join_fanout(member)
        # Ship anything proposed/committed since the member's sync point
        # (it may have synced during establishment and activated later).
        self._catch_up(member)
        self._send(
            member,
            UpToDate(self.addr, self.current_epoch, committed_to=self.last_committed),
        )

    def _on_up_to_date(self, src: NodeAddress, msg: UpToDate) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        # The leader's commit point at activation; anything we hold beyond
        # it is still in flight and commits normally later.
        if msg.committed_to > self.last_committed:
            self.last_committed = msg.committed_to
            self._apply_up_to(self.last_committed)

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

    def _remember_submit(self, dedup_id: Optional[Tuple[Any, ...]]) -> None:
        recent = self._recent_submits
        if dedup_id is None or dedup_id in recent:
            return
        recent[dedup_id] = None
        order = self._submit_order
        order.append(dedup_id)
        if len(order) > SUBMIT_DEDUP_LIMIT:
            del recent[order.popleft()]

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
            if self._cursor > 2 * DIFF_WINDOW:
                # The state holds what we drop; keep a window for DIFFs.
                drop = self._cursor - DIFF_WINDOW
                self.log.drop_before(drop)
                self._cursor = DIFF_WINDOW

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
