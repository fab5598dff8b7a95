"""The pre-PR-18 Zab replica — ``Zxid``, ``LogEntry``, ``TxnLog`` and ``ZabPeer``
verbatim (imports adjusted) — kept as a differential oracle.

``repro.zab`` has one peer: a positional log, tuple-ordered zxids, a
one-hop inbox consumer and an apply cursor. What that replaced lives
here, unchanged: hand-written zxid comparison dunders, a bisected log
with a parallel packed-key list, the ``_on_envelope -> _dispatch ->
handler`` double hop, and ``entries_range`` slicing per commit.

Three things moved on since, and follow the product's contract rather
than the verbatim copy: the inbox consumer takes the network's
``(src, dst, body)`` item, no longer an ``Envelope``; the server no
longer resets its state machine before a restart, so
:meth:`ZabPeer.restart` fires ``on_reset`` (this peer replays from zero;
its default is :func:`tests.reference_replay.reset_server_above`, since
the product server wires no such hook); and ``Snap`` here is the
whole-log message the product's state-transfer SNAP replaced.

Slow, but the specification: ``tests/test_zab_commit_path.py`` runs the
same seeded worlds over this and the product and demands the identical
message sequence, commit sequences and kernel event count; the substrate
contract suite and the golden histories run over it too. Registered by
the tests as substrate ``"zab-reference"`` (:func:`register`) — nothing
under ``src/`` may import this.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Deque, Dict, List, Optional, Set, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, Interrupt
from repro.substrate import SubstrateSpec, register_substrate
from repro.substrate.peer import SUBMIT_DEDUP_LIMIT, PeerState, submit_dedup_id
from repro.zab.config import EnsembleConfig
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
    SubmitRequest,
    Trunc,
    UpToDate,
    Vote,
    VoteNotification,
)

from tests.reference_replay import forget_applied, reset_server_above

__all__ = ["Zxid", "LogEntry", "TxnLog", "ZabPeer", "register"]


# -- zab/zxid.py ------------------------------------------------------------------


class Zxid:
    """A Zab transaction id: ``(epoch, counter)``, totally ordered.

    A hand-written ``__slots__`` class rather than a frozen ordered
    dataclass: zxids are compared on every proposal, ack, commit, and log
    append, and the generated dataclass comparisons (which build a field
    tuple per operand per compare) dominated the broadcast hot path. The
    hash matches the old dataclass hash — ``hash((epoch, counter))`` — so
    dict and set iteration orders are unchanged.
    """

    __slots__ = ("epoch", "counter", "_hash")

    ZERO: ClassVar["Zxid"]

    def __init__(self, epoch: int = 0, counter: int = 0):
        object.__setattr__(self, "epoch", epoch)
        object.__setattr__(self, "counter", counter)
        object.__setattr__(self, "_hash", hash((epoch, counter)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"Zxid is immutable (tried to set {key!r})")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Zxid:
            return NotImplemented
        return self.epoch == other.epoch and self.counter == other.counter

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not Zxid:
            return NotImplemented
        return self.epoch != other.epoch or self.counter != other.counter

    def __lt__(self, other: "Zxid") -> bool:
        if other.__class__ is not Zxid:
            return NotImplemented
        if self.epoch != other.epoch:
            return self.epoch < other.epoch
        return self.counter < other.counter

    def __le__(self, other: "Zxid") -> bool:
        if other.__class__ is not Zxid:
            return NotImplemented
        if self.epoch != other.epoch:
            return self.epoch < other.epoch
        return self.counter <= other.counter

    def __gt__(self, other: "Zxid") -> bool:
        if other.__class__ is not Zxid:
            return NotImplemented
        if self.epoch != other.epoch:
            return self.epoch > other.epoch
        return self.counter > other.counter

    def __ge__(self, other: "Zxid") -> bool:
        if other.__class__ is not Zxid:
            return NotImplemented
        if self.epoch != other.epoch:
            return self.epoch > other.epoch
        return self.counter >= other.counter

    def __repr__(self) -> str:
        return f"Zxid(epoch={self.epoch!r}, counter={self.counter!r})"

    def next(self) -> "Zxid":
        """The next zxid in the same epoch."""
        return Zxid(self.epoch, self.counter + 1)

    def new_epoch(self, epoch: int) -> "Zxid":
        """The first zxid of a later epoch."""
        if epoch <= self.epoch:
            raise ValueError(f"epoch {epoch} not newer than {self.epoch}")
        return Zxid(epoch, 0)

    def packed(self) -> int:
        """ZooKeeper-style 64-bit packed representation."""
        return (self.epoch << 32) | (self.counter & 0xFFFFFFFF)

    @classmethod
    def unpack(cls, packed: int) -> "Zxid":
        return cls(packed >> 32, packed & 0xFFFFFFFF)

    def __str__(self) -> str:
        return f"{self.epoch}:{self.counter}"


Zxid.ZERO = Zxid(0, 0)


# -- zab/log.py -------------------------------------------------------------------


@dataclass(frozen=True)
class LogEntry:
    """A single accepted transaction."""

    zxid: Zxid
    txn: Any


class TxnLog:
    """Ordered, strictly-increasing-zxid transaction log."""

    def __init__(self):
        self._entries: List[LogEntry] = []
        # Parallel packed-zxid keys for binary search.
        self._keys: List[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def last_zxid(self) -> Zxid:
        return self._entries[-1].zxid if self._entries else Zxid.ZERO

    def append(self, zxid: Zxid, txn: Any) -> LogEntry:
        """Append a transaction; zxids must be strictly increasing."""
        if self._entries and zxid <= self._entries[-1].zxid:
            raise ValueError(
                f"zxid {zxid} not after log tail {self._entries[-1].zxid}"
            )
        entry = LogEntry(zxid, txn)
        self._entries.append(entry)
        self._keys.append(zxid.packed())
        return entry

    def entries_after(self, zxid: Zxid) -> List[LogEntry]:
        """All entries with zxid strictly greater than ``zxid``."""
        start = bisect.bisect_right(self._keys, zxid.packed())
        return self._entries[start:]

    def entries_range(self, after: Zxid, upto: Zxid) -> List[LogEntry]:
        """Entries with ``after < zxid <= upto``."""
        start = bisect.bisect_right(self._keys, after.packed())
        end = bisect.bisect_right(self._keys, upto.packed())
        return self._entries[start:end]

    def contains(self, zxid: Zxid) -> bool:
        index = bisect.bisect_left(self._keys, zxid.packed())
        return index < len(self._keys) and self._keys[index] == zxid.packed()

    def truncate_after(self, zxid: Zxid) -> List[LogEntry]:
        """Drop entries after ``zxid``; returns what was dropped."""
        cut = bisect.bisect_right(self._keys, zxid.packed())
        dropped = self._entries[cut:]
        del self._entries[cut:]
        del self._keys[cut:]
        return dropped

    def get(self, zxid: Zxid) -> Optional[LogEntry]:
        index = bisect.bisect_left(self._keys, zxid.packed())
        if index < len(self._keys) and self._keys[index] == zxid.packed():
            return self._entries[index]
        return None

    def replace_all(self, entries: List[LogEntry]) -> None:
        """Install a snapshot: replace the whole log."""
        for previous, current in zip(entries, entries[1:]):
            if current.zxid <= previous.zxid:
                raise ValueError("snapshot entries not strictly increasing")
        self._entries = list(entries)
        self._keys = [entry.zxid.packed() for entry in self._entries]

    def tail(self, count: int) -> List[LogEntry]:
        return self._entries[-count:] if count > 0 else []

    def snapshot(self) -> List[LogEntry]:
        """A copy of the full log (entries are immutable)."""
        return list(self._entries)


# -- zab/messages.py --------------------------------------------------------------


@dataclass(frozen=True)
class Snap:
    """Leader -> follower: full log snapshot."""

    sender: NodeAddress
    entries: List[LogEntry]


# -- zab/peer.py ------------------------------------------------------------------


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

        # Message-type dispatch table, built once: _dispatch runs for every
        # delivered message and rebuilding a 17-entry dict per message was
        # one of the hottest lines in the whole simulation.
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

        # Durable state (survives crash/restart).
        self.log = TxnLog()
        self.accepted_epoch = 0
        self.current_epoch = 0

        # Volatile state.
        self.state = PeerState.DOWN
        self.leader_addr: Optional[NodeAddress] = None
        self.last_committed = Zxid.ZERO
        self._last_applied = Zxid.ZERO

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
        # retransmitted SubmitRequests under lossy links).
        self._recent_submits: "OrderedDict[Tuple[Any, ...], None]" = OrderedDict()
        # Never iterate these sets raw: set order is string hash order,
        # which varies per interpreter (PYTHONHASHSEED) and would leak
        # into the shared network jitter RNG's draw order. Fan-out loops
        # use the _fanout_* tuples below — sorted once per membership
        # change instead of per proposal/commit/tick.
        self._active_followers: Set[NodeAddress] = set()
        self._active_observers: Set[NodeAddress] = set()
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
        # Called when a restart or a SNAP replays history: the state
        # machine above must reset to empty before commits are re-applied
        # from zero.
        self.on_reset: Callable[["ZabPeer"], None] = reset_server_above
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
        self._procs: List[Any] = []

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
        self._procs = [
            self.env.process(self._ticker(), name=f"{self.name}.tick"),
        ]

    def crash(self) -> None:
        """Crash the peer: drop volatile state, close the inbox."""
        if not self._alive:
            return
        self._alive = False
        self._set_state(PeerState.DOWN)
        self.net.crash(self.addr)
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("crash")
        self._procs = []

    def restart(self) -> None:
        """Restart after a crash; durable log and epochs are retained."""
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self.net.restart(self.addr)
        self.leader_addr = None
        self.last_committed = Zxid.ZERO
        self._last_applied = Zxid.ZERO
        # The durable log replays from zero; applied-zxid tracking
        # restarts with it.
        forget_applied(self)
        self.on_reset(self)
        self._reset_leader_state()
        self._alive = True
        self._last_leader_contact = self.env.now
        if self.is_observer:
            self._set_state(PeerState.OBSERVING)
        else:
            self._enter_looking()
        self._procs = [
            self.env.process(self._ticker(), name=f"{self.name}.tick"),
        ]

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
        self._recent_submits = OrderedDict()
        self._active_followers = set()
        self._active_observers = set()
        self._fanout_followers = ()
        self._fanout_observers = ()
        self._discovery_epochs = {}
        self._synced_to = {}
        self._newleader_acks = set()
        self._epoch_established = False
        self._broadcast_active = False
        self._last_heard = {}

    # -------------------------------------------------------------- processes

    def _on_envelope(self, msg) -> None:
        # Inbox consumer: replaces the old _main_loop pump process. The
        # aliveness check mirrors the pump's `while self._alive` guard.
        if self._alive:
            self._dispatch(msg[0], msg[2])

    def _ticker(self):
        interval = self.config.heartbeat_interval_ms
        while self._alive:
            try:
                yield self.env.timeout(interval)
            except Interrupt:
                return
            if not self._alive:
                return
            self._on_tick()

    def _on_tick(self) -> None:
        now = self.env.now
        timeout = self.config.election_timeout_ms
        if self.state == PeerState.LOOKING:
            self._broadcast_vote()
        elif self.state == PeerState.LEADING:
            ping = Ping(self.addr, self.current_epoch, self.last_committed)
            for member in self._fanout_followers:
                self._send(member, ping)
            for member in self._fanout_observers:
                self._send(member, ping)
            if self._broadcast_active:
                self._retransmit_pending()
                heard = sum(
                    1
                    for voter in self.config.voters
                    if voter != self.addr
                    and now - self._last_heard.get(voter, now) <= timeout
                )
                # Count ourselves; step down if we cannot reach a quorum.
                if not self.config.is_quorum(heard + 1):
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

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, src: NodeAddress, msg: Any) -> None:
        if not self._alive:
            return
        handler = self._handlers.get(type(msg))
        if handler is None:
            raise ValueError(f"{self.name}: unhandled message {msg!r}")
        handler(src, msg)

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
        if not self.config.is_quorum(supporters):
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
        if not self.config.is_quorum(len(self._discovery_epochs)):
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
        on them like everyone else. The joiner is added to the recipient
        sets immediately — FIFO channels guarantee it sees sync before any
        subsequent proposal/commit, closing the join-window gap.
        """
        sync_to = self.last_committed if self._broadcast_active else self.last_zxid
        synced_entries = [
            entry
            for entry in self.log.entries_after(follower_last)
            if entry.zxid <= sync_to
        ]
        if follower_last <= sync_to:
            if follower_last == Zxid.ZERO or self.log.contains(follower_last):
                self._send(follower, Diff(self.addr, synced_entries))
            else:
                self._send(
                    follower,
                    Snap(
                        self.addr,
                        [e for e in self.log.snapshot() if e.zxid <= sync_to],
                    ),
                )
        else:
            # Follower is ahead of our sync point: its extra entries were
            # never committed (quorum intersection); truncate them away.
            self._send(follower, Trunc(self.addr, sync_to))
        self._send(follower, NewLeader(self.addr, self.current_epoch))
        self._synced_to[follower] = sync_to
        if self._broadcast_active:
            # Join the recipient sets now; ship the in-flight tail.
            if self.config.is_observer(follower):
                self._active_observers.add(follower)
                self._fanout_observers = tuple(sorted(self._active_observers))
            else:
                self._active_followers.add(follower)
                self._fanout_followers = tuple(sorted(self._active_followers))
            self._catch_up(follower)

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
        for entry in msg.entries:
            if entry.zxid > self.log.last_zxid:
                self.log.append(entry.zxid, entry.txn)

    def _on_trunc(self, src: NodeAddress, msg: Trunc) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.log.truncate_after(msg.truncate_to)
        for entry in msg.entries:
            if entry.zxid > self.log.last_zxid:
                self.log.append(entry.zxid, entry.txn)

    def _on_snap(self, src: NodeAddress, msg: Snap) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.log.replace_all(msg.entries)
        # A snapshot may rewrite history below our applied point; the state
        # machine is rebuilt from scratch by re-applying from zero.
        self._last_applied = Zxid.ZERO
        self.last_committed = Zxid.ZERO
        if self._trace is not None:
            self._trace.emit(self.env.now, "zab", "snap-reset", self.name,
                             {"entries": len(msg.entries)})
        forget_applied(self)
        self.on_reset(self)

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
        if not self.config.is_quorum(voter_acks):
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
        if self.config.is_observer(member):
            self._active_observers.add(member)
            self._fanout_observers = tuple(sorted(self._active_observers))
        else:
            self._active_followers.add(member)
            self._fanout_followers = tuple(sorted(self._active_followers))
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
        self._acks[zxid] = {self.addr}
        self._proposed_at[zxid] = self.env.now
        message = Propose(self.addr, zxid, txn)
        for follower in self._fanout_followers:
            self._send(follower, message)
        self._maybe_commit()
        return zxid

    def _remember_submit(self, dedup_id: Optional[Tuple[Any, ...]]) -> None:
        if dedup_id is None:
            return
        self._recent_submits[dedup_id] = None
        while len(self._recent_submits) > SUBMIT_DEDUP_LIMIT:
            self._recent_submits.popitem(last=False)

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
        if src != self.leader_addr or self.state != PeerState.FOLLOWING:
            return
        self._last_leader_contact = self.env.now
        last = self.log.last_zxid
        if msg.zxid <= last:
            # Duplicate or retransmission of an entry we already hold:
            # re-ack so a lost ACK cannot stall the quorum forever.
            self._send(src, Ack(self.addr, msg.zxid))
            return
        if self._follows(last, msg.zxid):
            self.log.append(msg.zxid, msg.txn)
            self._send(src, Ack(self.addr, msg.zxid))
            return
        # Gap: a proposal in between was lost. Never append out of order —
        # the log must stay contiguous — ask the leader to resync instead.
        self._request_resync()

    def _on_ack(self, src: NodeAddress, msg: Ack) -> None:
        if self.state != PeerState.LEADING:
            return
        self._last_heard[src] = self.env.now
        if msg.zxid in self._acks:
            self._acks[msg.zxid].add(src)
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
        committed: List[Any] = []
        while pending:
            zxid = pending[0]
            if not self.config.is_quorum(len(self._acks.get(zxid, ()))):
                break
            pending.popleft()
            self._acks.pop(zxid, None)
            self._proposed_at.pop(zxid, None)
            entry = self.log.get(zxid)
            assert entry is not None
            committed.append(entry)
        if not committed:
            return
        zxid = committed[-1].zxid
        self.last_committed = zxid
        self._apply_up_to(zxid)
        commit = Commit(self.addr, zxid)
        for follower in self._fanout_followers:
            self._send(follower, commit)
        for observer in self._fanout_observers:
            for entry in committed:
                self._send(observer, Inform(self.addr, entry.zxid, entry.txn))

    def _on_commit_msg(self, src: NodeAddress, msg: Commit) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        if msg.zxid <= self.last_committed:
            return  # duplicate commit
        if not self.log.contains(msg.zxid):
            # The proposal itself was lost: don't advance the commit point
            # past entries we don't hold — resync with the leader instead.
            self._request_resync()
            return
        self.last_committed = msg.zxid
        self._apply_up_to(msg.zxid)

    def _on_inform(self, src: NodeAddress, msg: Inform) -> None:
        if self.state != PeerState.OBSERVING or src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        if msg.zxid > self.log.last_zxid:
            self.log.append(msg.zxid, msg.txn)
        self.last_committed = max(self.last_committed, msg.zxid)
        self._apply_up_to(msg.zxid)

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
        if zxid <= self._last_applied:
            return
        if self.on_commit is None:
            self._last_applied = zxid
            return
        for entry in self.log.entries_range(self._last_applied, zxid):
            self._last_applied = entry.zxid
            self.commits_delivered += 1
            if self.sentinel is not None:
                self.sentinel.on_peer_commit(self, entry.zxid, entry.txn)
            self.on_commit(entry.zxid, entry.txn)

    # -------------------------------------------------------------- liveness

    def _on_ping(self, src: NodeAddress, msg: Ping) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        if msg.last_committed is not None and self.state == PeerState.FOLLOWING:
            if msg.last_committed > self.last_committed:
                if self.log.contains(msg.last_committed):
                    self.last_committed = msg.last_committed
                    self._apply_up_to(msg.last_committed)
                else:
                    # The leader committed entries we never received.
                    self._request_resync()
        self._send(src, Pong(self.addr, self.current_epoch))

    def _on_pong(self, src: NodeAddress, msg: Pong) -> None:
        if self.state == PeerState.LEADING:
            self._last_heard[src] = self.env.now


# -- registration -----------------------------------------------------------------


def register() -> None:
    """Register this peer as substrate ``"zab-reference"``."""
    register_substrate(
        SubstrateSpec(name="zab-reference", factory=ZabPeer, single_leader=True)
    )
