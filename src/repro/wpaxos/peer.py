"""WPaxos: multileader consensus with per-object ownership and stealing.

One :class:`WPaxosPeer` per server, implementing the broadcast-substrate
contract (:mod:`repro.substrate`) the ZK service layer programs against.
Where Zab elects one leader for the whole ensemble, WPaxos (arXiv
1703.08905) partitions the command space by *object* (here: znode path)
and lets every voter lead the objects it owns:

* **Flexible grid quorums.** Zones are the deployment's sites; each
  zone's voters form one column of the grid. A phase-1 (steal) quorum Q1
  needs a majority of the voters in *every* zone; a phase-2 (commit)
  quorum Q2 is a majority of the owner's *own* zone. Any Q1 intersects
  any Q2 inside the owner's zone, which is all Paxos needs — and it
  makes committing a locally-owned object a zone-local (intra-site)
  round trip, the WAN win the paper is after.
* **Object stealing via phase-1 ballot takeover.** A voter asked to
  write an object it does not own runs phase-1 for that object at a
  higher ballot ``(n, addr)``. Promisers piggyback their accepted and
  chosen entries so the thief recovers any in-flight commands before
  re-proposing them under its own ballot. The previous owner demotes
  the moment it promises a higher ballot.
* **Per-object commit order.** Commits are totally ordered *per object*
  (contiguous slots); there is no global order across objects. The
  delivered zxid is ``Zxid(ballot_n, slot)`` — monotonic within an
  object, not across the ensemble — so the invariant sentinel checks
  per-object order and cross-replica slot agreement instead of Zab's
  global zxid monotonicity.

Observers are pure learners: they receive Learns, follow the chosen
stream, and forward writes to a voter.

A restart keeps the state machine and resumes at each object's applied
point; catch-up and the chosen log's window are :mod:`repro.wpaxos.resync`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Message, Network
from repro.sim.kernel import Environment, Ticker
from repro.zab import peer as zab_peer
from repro.zab.config import EnsembleConfig
from repro.zab.peer import PeerState, submit_dedup_id
from repro.zab.zxid import Zxid
from repro.wpaxos.messages import (
    Accept,
    Accepted,
    Ballot,
    Learn,
    Prepare,
    Promise,
    Reject,
    ResyncReq,
    ResyncRsp,
    ResyncSnap,
    SubmitReq,
)
from repro.wpaxos.resync import Resync

__all__ = ["WPaxosPeer", "META_OBJECT"]

#: Ordering domain for transactions that touch no single znode path
#: (session teardown and other marker ops).
META_OBJECT = "__sessions__"

ZERO_BALLOT: Ballot = (0, "")


class _Steal:
    """One in-flight phase-1 takeover for one object."""

    __slots__ = (
        "ballot", "started", "retry_at", "promised_by",
        "accepted", "chosen", "highest_seen",
    )

    def __init__(self, ballot: Ballot, now: float):
        self.ballot = ballot
        self.started = now
        self.retry_at: Optional[float] = None
        # zone -> {addr: None} (dict-as-ordered-set; never iterate a raw set)
        self.promised_by: Dict[str, Dict[NodeAddress, None]] = {}
        # slot -> (ballot, txn), highest-ballot accepted value per slot.
        self.accepted: Dict[int, Tuple[Ballot, Any]] = {}
        self.chosen: Dict[int, Tuple[Ballot, Any]] = {}
        self.highest_seen: Ballot = ballot


class _P2:
    """One in-flight phase-2 (slot being committed) for an owned object."""

    __slots__ = ("ballot", "txn", "acks", "sent")

    def __init__(self, ballot: Ballot, txn: Any, self_addr: NodeAddress,
                 now: float):
        self.ballot = ballot
        self.txn = txn
        self.acks: Dict[NodeAddress, None] = {self_addr: None}
        self.sent = now


class WPaxosPeer(Resync):
    """A single WPaxos voter or observer (learner)."""

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

        # Grid shape: zones are sites, columns are each zone's voters, in
        # config order (deterministic; never derived from set iteration).
        self._zones: "OrderedDict[str, Tuple[NodeAddress, ...]]" = OrderedDict()
        by_zone: Dict[str, List[NodeAddress]] = {}
        for voter in config.voters:
            by_zone.setdefault(voter.site, []).append(voter)
        for zone, voters in by_zone.items():
            self._zones[zone] = tuple(voters)
        self._zone_quorum = {
            zone: len(voters) // 2 + 1
            for zone, voters in self._zones.items()
        }
        self._voter_index = (
            config.voters.index(addr) if not self.is_observer else 0
        )
        # Fixed with the membership: an Accept goes to the rest of our zone,
        # a Learn to every other member; Q2 is a majority of our zone.
        self._zone_peers = tuple(
            voter for voter in self._zones.get(addr.site, ()) if voter != addr
        )
        self._learners = tuple(
            member for member in config.members if member != addr
        )
        self._quorum = self._zone_quorum.get(addr.site, 1)

        self._handlers = {
            Prepare: self._on_prepare,
            Promise: self._on_promise,
            Reject: self._on_reject,
            Accept: self._on_accept,
            Accepted: self._on_accepted,
            Learn: self._on_learn,
            SubmitReq: self._on_submit_req,
            ResyncReq: self._on_resync_req,
            ResyncRsp: self._on_resync_rsp,
            ResyncSnap: self._on_resync_snap,
        }
        self.inbox = net.register(addr)
        self.inbox.consume(self._on_envelope)

        # Durable state (survives crash/restart), and the state machine
        # above it, which holds every slot below _applied.
        self._promised: Dict[str, Ballot] = {}
        # obj -> slot -> (ballot, txn): accepted but not known chosen.
        self._accepted: Dict[str, Dict[int, Tuple[Ballot, Any]]] = {}
        # obj -> slot -> (ballot, txn): the chosen log's window. Per object
        # it holds every slot from _held_from(obj) up to _applied, and the
        # chosen slots above a hole.
        self._chosen: Dict[str, Dict[int, Tuple[Ballot, Any]]] = {}
        # obj -> next slot to apply: the contiguous chosen prefix.
        self._applied: Dict[str, int] = {}
        # obj -> the oldest slot the window holds (0 if none dropped); the
        # slot below it stays in _chosen while it is the newest applied.
        self._base: Dict[str, int] = {}
        # The object of every apply the window holds, oldest first.
        self._window: Deque[str] = deque()
        self.current_epoch = 0

        # Volatile state.
        self.state = PeerState.DOWN
        self._owned: Dict[str, Ballot] = {}
        self._next_slot: Dict[str, int] = {}
        self._stealing: Dict[str, _Steal] = {}
        self._queued: Dict[str, List[Any]] = {}
        self._p2: Dict[Tuple[str, int], _P2] = {}
        self._gapped: Dict[str, None] = {}
        # submit dedup id -> (obj, slot) for at-most-one-slot per request,
        # and the ids oldest first for FIFO eviction.
        self._recent_submits: Dict[Tuple[Any, ...], Tuple[str, int]] = {}
        self._submit_order: Deque[Tuple[Any, ...]] = deque()

        # Hooks (substrate contract). A requester below our window gets
        # snapshot_state(); we take a sender's with install_state(state).
        self.on_commit = None
        self.snapshot_state = None
        self.install_state = None
        self.on_submit = None
        self.on_state_change = None
        self.on_leader_activated = None

        # Metrics.
        self.commits_delivered = 0
        self.steals_started = 0
        self.steals_won = 0
        self.steals_rejected = 0
        self.proposals_retransmitted = 0
        self.duplicate_submits_dropped = 0
        self.snapshots_installed = 0

        # Observability; None keeps every instrumentation point a no-op.
        self._trace = None
        self.sentinel = None

        self._alive = False
        self._ticker: Optional[Ticker] = None

    # ------------------------------------------------------------------ API

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WPaxosPeer {self.addr} {self.state.value} "
            f"owns={len(self._owned)}>"
        )

    @property
    def is_leader(self) -> bool:
        """Multileader: every live voter proposes (for the objects it owns
        or can steal); the service layer submits locally everywhere."""
        return self._alive and not self.is_observer

    @property
    def leader_addr(self) -> Optional[NodeAddress]:
        if not self._alive:
            return None
        return self.addr if not self.is_observer else self._forward_target()

    @property
    def last_zxid(self) -> Zxid:
        return Zxid(self.current_epoch, self.commits_delivered)

    @property
    def is_alive(self) -> bool:
        return self._alive

    def start(self) -> None:
        if self._alive:
            raise RuntimeError(f"{self.name} already started")
        self._alive = True
        if self.current_epoch == 0:
            self.current_epoch = 1
        self._set_state(
            PeerState.OBSERVING if self.is_observer else PeerState.LEADING
        )
        self._ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms, self._on_tick
        )
        if self.on_leader_activated is not None and not self.is_observer:
            self.on_leader_activated(self)

    def crash(self) -> None:
        if not self._alive:
            return
        self._alive = False
        self._set_state(PeerState.DOWN)
        self.net.crash(self.addr)
        # Volatile: ownership, steals, in-flight phase-2, queues.
        self._owned = {}
        self._next_slot = {}
        self._stealing = {}
        self._queued = {}
        self._p2 = {}
        self._gapped = {}
        self._recent_submits = {}
        self._submit_order = deque()
        self._ticker.stop()

    def restart(self) -> None:
        """Rejoin after a crash: the state machine still holds every slot
        below the applied points, so delivery resumes there; anti-entropy
        the committed suffix from the other members."""
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self.net.restart(self.addr)
        self._alive = True
        self._set_state(
            PeerState.OBSERVING if self.is_observer else PeerState.LEADING
        )
        self._send_resync_request()
        self._ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms, self._on_tick
        )
        if self.on_leader_activated is not None and not self.is_observer:
            self.on_leader_activated(self)

    def submit(self, txn: Any) -> Zxid:
        """Proposer entry point: commit ``txn`` in its object's log.

        Owned object: phase-2 in the local zone. Otherwise: queue the txn
        and run (or keep running) a phase-1 steal for the object.
        """
        if not self._alive or self.is_observer:  # is_leader, inline
            raise RuntimeError(f"{self.name} is not an active proposer")
        obj = self._object_of(txn)
        dedup = submit_dedup_id(txn)
        if dedup is not None:
            seen = self._recent_submits.get(dedup)
            if seen is not None:
                self.duplicate_submits_dropped += 1
                prev_obj, prev_slot = seen
                entry = self._chosen.get(prev_obj, {}).get(prev_slot)
                if entry is not None:
                    # The first copy already committed; the retry means our
                    # Learn may have been lost — refan it.
                    self._fanout_learn(prev_obj, prev_slot, entry[0], entry[1])
                return Zxid(self.current_epoch, prev_slot)
        if obj in self._owned:
            slot = self._propose(obj, txn)
            if dedup is not None:
                self._note_submit(dedup, obj, slot)
            return Zxid(self._owned[obj][0], slot)
        self._queued.setdefault(obj, []).append(txn)
        if dedup is not None:
            self._note_submit(dedup, obj, -1)
        self._ensure_steal(obj)
        return Zxid.ZERO

    def forward_submit(self, txn: Any, ctx: Any = None) -> None:
        """Observer path: hand the transaction to a voter."""
        target = self._forward_target()
        if target is None:
            raise RuntimeError(f"{self.name} knows no voter to forward to")
        self._send(target, SubmitReq(self.addr, txn))

    # ------------------------------------------------------------- plumbing

    def _forward_target(self) -> Optional[NodeAddress]:
        local = self._zones.get(self.addr.site)
        if local:
            return local[0]
        return self.config.voters[0] if self.config.voters else None

    def _send(self, dst: NodeAddress, body: Any) -> None:
        if not self._alive:
            return
        self.net.send(self.addr, dst, body)

    def _set_state(self, state: PeerState) -> None:
        if state == self.state:
            return
        self.state = state
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "state", self.name,
                             {"state": state.value,
                              "epoch": self.current_epoch})
        if self.on_state_change is not None:
            self.on_state_change(self)

    def _on_envelope(self, msg: Message) -> None:
        # One hop to the handler; a crashed peer consumes and ignores.
        if self._alive:
            body = msg[2]
            handler = self._handlers.get(body.__class__)
            if handler is None:
                raise ValueError(f"{self.name}: unexpected message {body!r}")
            handler(body)

    @staticmethod
    def _object_of(txn: Any) -> str:
        op = getattr(txn, "op", None)
        path = getattr(op, "path", None)
        if path is not None:
            return path
        subs = getattr(op, "ops", None)
        if subs:
            sub_path = getattr(subs[0], "path", None)
            if sub_path is not None:
                return sub_path
        return META_OBJECT

    def _note_submit(self, dedup: Tuple[Any, ...], obj: str, slot: int) -> None:
        recent = self._recent_submits
        if dedup not in recent:
            order = self._submit_order
            order.append(dedup)
            if len(order) > zab_peer.SUBMIT_DEDUP_LIMIT:
                del recent[order.popleft()]
        recent[dedup] = (obj, slot)

    def _bump_epoch(self, n: int) -> None:
        if n > self.current_epoch:
            self.current_epoch = n

    # ------------------------------------------------------------ phase one

    def _ensure_steal(self, obj: str) -> None:
        if obj in self._stealing:
            return
        self._begin_steal(obj)

    def _begin_steal(self, obj: str, floor: Ballot = ZERO_BALLOT) -> None:
        highest = max(
            self._promised.get(obj, ZERO_BALLOT),
            self._owned.get(obj, ZERO_BALLOT),
            floor,
        )
        ballot: Ballot = (highest[0] + 1, str(self.addr))
        steal = _Steal(ballot, self.env.now)
        self._stealing[obj] = steal
        self.steals_started += 1
        self._bump_epoch(ballot[0])
        # Self-promise: our own durable promise + accepted/chosen entries.
        self._promised[obj] = ballot
        self._owned.pop(obj, None)
        self._record_promise(
            steal, obj, self.addr,
            self._accepted_triples(obj), (),
        )
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "steal-begin", self.name,
                             {"obj": obj, "ballot": list(ballot)})
        prepare = Prepare(obj, ballot, self.addr, self._applied.get(obj, 0))
        for voter in self.config.voters:
            if voter != self.addr:
                self._send(voter, prepare)
        self._maybe_adopt(obj)

    def _accepted_triples(
        self, obj: str
    ) -> Tuple[Tuple[int, Ballot, Any], ...]:
        accepted = self._accepted.get(obj)
        if not accepted:
            return ()
        return tuple(
            (slot, entry[0], entry[1])
            for slot, entry in sorted(accepted.items())
        )

    def _on_prepare(self, msg: Prepare) -> None:
        promised = self._promised.get(msg.obj, ZERO_BALLOT)
        if msg.ballot <= promised:
            self._send(
                msg.src, Reject(msg.obj, msg.ballot, self.addr, promised)
            )
            return
        self._promised[msg.obj] = msg.ballot
        self._bump_epoch(msg.ballot[0])
        # A lower-ballot steal of ours can no longer win: our own promise
        # outranks it. Note the stronger bid and rebid above it later.
        ours = self._stealing.get(msg.obj)
        if ours is not None and ours.ballot < msg.ballot:
            if msg.ballot > ours.highest_seen:
                ours.highest_seen = msg.ballot
            if ours.retry_at is None:
                stagger = self.config.heartbeat_interval_ms * (
                    1 + self._voter_index
                )
                ours.retry_at = self.env.now + stagger
        # Promising a higher ballot demotes us as owner of this object.
        if msg.obj in self._owned:
            self._owned.pop(msg.obj, None)
            if self._trace is not None:
                self._trace.emit(self.env.now, "wpaxos", "demote", self.name,
                                 {"obj": msg.obj, "to": str(msg.src)})
        self._send(
            msg.src,
            Promise(msg.obj, msg.ballot, self.addr,
                    self._accepted_triples(msg.obj),
                    tuple(self._chosen_from(msg.obj, msg.applied))),
        )
        if msg.applied < self._held_from(msg.obj):
            # The stealer is below our window: our newest entry shows it
            # where the log ends, and our state fills the hole.
            self._send_snapshot(msg.src)

    def _record_promise(
        self,
        steal: _Steal,
        obj: str,
        src: NodeAddress,
        accepted: Tuple[Tuple[int, Ballot, Any], ...],
        chosen: Tuple[Tuple[int, Ballot, Any], ...],
    ) -> None:
        zone = src.site
        steal.promised_by.setdefault(zone, {})[src] = None
        for slot, ballot, txn in accepted:
            ballot = tuple(ballot)
            best = steal.accepted.get(slot)
            if best is None or ballot > best[0]:
                steal.accepted[slot] = (ballot, txn)
        for slot, ballot, txn in chosen:
            steal.chosen[slot] = (tuple(ballot), txn)

    def _on_promise(self, msg: Promise) -> None:
        steal = self._stealing.get(msg.obj)
        if steal is None or tuple(msg.ballot) != steal.ballot:
            return
        self._record_promise(
            steal, msg.obj, msg.src, msg.accepted, msg.chosen
        )
        self._maybe_adopt(msg.obj)

    def _on_reject(self, msg: Reject) -> None:
        steal = self._stealing.get(msg.obj)
        if steal is None or tuple(msg.ballot) != steal.ballot:
            return
        self.steals_rejected += 1
        promised = tuple(msg.promised)
        if promised > steal.highest_seen:
            steal.highest_seen = promised
        if steal.retry_at is None:
            # Deterministic per-voter stagger breaks dueling-stealer
            # lockstep without randomness.
            stagger = self.config.heartbeat_interval_ms * (
                1 + self._voter_index
            )
            steal.retry_at = self.env.now + stagger
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "steal-reject", self.name,
                             {"obj": msg.obj, "by": str(msg.src)})

    def _have_q1(self, steal: _Steal) -> bool:
        for zone, voters in self._zones.items():
            got = len(steal.promised_by.get(zone, {}))
            if got < self._zone_quorum[zone]:
                return False
        return True

    def _maybe_adopt(self, obj: str) -> None:
        steal = self._stealing.get(obj)
        if steal is None or not self._have_q1(steal):
            return
        if self._promised.get(obj, ZERO_BALLOT) > steal.ballot:
            # We promised a stronger bid after starting this steal;
            # adopting now would commit below our own promise. The ticker
            # rebids above ``highest_seen``.
            return
        del self._stealing[obj]
        ballot = steal.ballot
        self.steals_won += 1
        # Catch up on chosen entries promisers reported.
        chosen = self._chosen_log(obj)
        for slot, (entry_ballot, txn) in sorted(steal.chosen.items()):
            self._record_chosen(obj, slot, entry_ballot, txn)
        self._owned[obj] = ballot
        if self.sentinel is not None:
            self.sentinel.on_object_owner(self, obj, ballot)
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "steal-adopt", self.name,
                             {"obj": obj, "ballot": list(ballot)})
        self._apply_ready(obj)
        # Re-propose possibly-chosen survivors above the chosen prefix,
        # highest-ballot value per slot (classic phase-1 recovery).
        floor = self._applied.get(obj, 0)
        if chosen:
            top = max(chosen)
            if top >= floor:
                # The promisers' windows start above our applied point:
                # the hole below their entries is chosen; resync fills it.
                self._gapped[obj] = None
            floor = max(floor, top + 1)
        next_slot = floor
        for slot, (_, txn) in sorted(steal.accepted.items()):
            if slot < floor or slot in chosen:
                continue
            next_slot = max(next_slot, slot + 1)
            self._phase2(obj, ballot, slot, txn)
        self._next_slot[obj] = next_slot
        queued = self._queued.pop(obj, [])
        for txn in queued:
            slot = self._propose(obj, txn)
            dedup = submit_dedup_id(txn)
            if dedup is not None:
                self._note_submit(dedup, obj, slot)

    # ------------------------------------------------------------ phase two

    def _propose(self, obj: str, txn: Any) -> int:
        ballot = self._owned[obj]
        slot = self._next_slot.get(obj, self._applied.get(obj, 0))
        self._next_slot[obj] = slot + 1
        self._phase2(obj, ballot, slot, txn)
        return slot

    def _phase2(self, obj: str, ballot: Ballot, slot: int, txn: Any) -> None:
        if self._promised.get(obj, ZERO_BALLOT) > ballot:
            return  # demoted mid-flight; the thief's recovery takes over
        self._accept(obj, slot, ballot, txn)
        addr = self.addr
        self._p2[(obj, slot)] = _P2(ballot, txn, addr, self.env.now)
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "accept", self.name,
                             {"obj": obj, "slot": slot,
                              "ballot": list(ballot)})
        if self._alive:
            send = self.net.send
            accept = Accept(obj, ballot, slot, txn, addr)
            for voter in self._zone_peers:
                send(addr, voter, accept)
        if self._quorum == 1:
            # The zone is this one voter: our own accept is the quorum.
            del self._p2[(obj, slot)]
            self._choose(obj, slot, ballot, txn)
            self._fanout_learn(obj, slot, ballot, txn)

    def _on_accept(self, msg: Accept) -> None:
        obj = msg.obj
        ballot = tuple(msg.ballot)
        promised = self._promised.get(obj, ZERO_BALLOT)
        if ballot < promised:
            return  # stale owner; its Q2 can no longer form here
        self._promised[obj] = ballot
        if ballot[0] > self.current_epoch:
            self.current_epoch = ballot[0]
        self._accept(obj, msg.slot, ballot, msg.txn)
        if self._alive:
            addr = self.addr
            self.net.send(addr, msg.src, Accepted(obj, ballot, msg.slot, addr))

    def _accept(self, obj: str, slot: int, ballot: Ballot, txn: Any) -> None:
        """Record an accepted value, unless the slot is chosen already (a
        late or duplicated Accept, or a stale owner's proposal): every
        later Promise would carry it, and nothing would remove it."""
        if slot < self._applied.get(obj, 0) or slot in self._chosen.get(obj, ()):
            return
        self._accepted.setdefault(obj, {})[slot] = (ballot, txn)

    def _on_accepted(self, msg: Accepted) -> None:
        key = (msg.obj, msg.slot)
        state = self._p2.get(key)
        if state is None or tuple(msg.ballot) != state.ballot:
            return
        acks = state.acks
        acks[msg.src] = None
        if len(acks) < self._quorum:
            return
        del self._p2[key]
        self._choose(msg.obj, msg.slot, state.ballot, state.txn)
        self._fanout_learn(msg.obj, msg.slot, state.ballot, state.txn)

    def _chosen_log(self, obj: str) -> Dict[int, Tuple[Ballot, Any]]:
        chosen = self._chosen.get(obj)
        if chosen is None:
            chosen = self._chosen[obj] = {}
            self._applied.setdefault(obj, 0)
        return chosen

    def _record_chosen(self, obj: str, slot: int, ballot: Ballot,
                       txn: Any) -> bool:
        """The way into the chosen log (``_on_learn`` does the same inline
        for the next slot in order); the slot leaves ``_accepted``. False if
        it was chosen already (the state holds every slot below the applied
        point)."""
        accepted = self._accepted.get(obj)
        if accepted:
            accepted.pop(slot, None)
        chosen = self._chosen.get(obj)
        if chosen is None:
            chosen = self._chosen_log(obj)
        elif slot in chosen or slot < self._applied.get(obj, 0):
            return False
        chosen[slot] = (ballot, txn)
        return True

    def _choose(self, obj: str, slot: int, ballot: Ballot, txn: Any) -> None:
        if not self._record_chosen(obj, slot, ballot, txn):
            return
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "chosen", self.name,
                             {"obj": obj, "slot": slot,
                              "ballot": list(ballot)})
        self._apply_ready(obj)

    def _fanout_learn(self, obj: str, slot: int, ballot: Ballot,
                      txn: Any) -> None:
        if self._alive:
            send, addr = self.net.send, self.addr
            learn = Learn(obj, ballot, slot, txn, addr)
            for member in self._learners:
                send(addr, member, learn)

    def _on_learn(self, msg: Learn) -> None:
        obj, slot = msg.obj, msg.slot
        chosen = self._chosen.get(obj)
        if (
            chosen is None
            or slot != self._applied.get(obj, 0)
            or slot + 1 in chosen
        ):
            # Not the one next slot: a duplicate, a slot above a hole, or
            # the one that closes it.
            self._choose(obj, slot, tuple(msg.ballot), msg.txn)
            if slot > self._applied.get(obj, 0):
                # A hole below this slot: ask the ensemble to fill it.
                self._gapped[obj] = None
                if self._trace is not None:
                    self._trace.emit(self.env.now, "wpaxos", "learn-gap",
                                     self.name,
                                     {"obj": obj, "slot": slot,
                                      "applied": self._applied.get(obj, 0)})
            return
        # The next slot in order (the applied point is never in the chosen
        # log): record it and apply it here, as _choose and _apply_ready
        # would, in their order.
        ballot, txn = tuple(msg.ballot), msg.txn
        accepted = self._accepted.get(obj)
        if accepted:
            accepted.pop(slot, None)
        chosen[slot] = (ballot, txn)
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "chosen", self.name,
                             {"obj": obj, "slot": slot,
                              "ballot": list(ballot)})
        if self.sentinel is not None:
            self.sentinel.on_object_commit(self, obj, slot, ballot, txn)
        if self.on_commit is not None:
            self.on_commit(tuple.__new__(Zxid, (ballot[0], slot)), txn)
        self.commits_delivered += 1
        self._window.append(obj)
        self._applied[obj] = slot + 1
        self._gapped.pop(obj, None)
        if len(self._window) > 2 * zab_peer.DIFF_WINDOW:
            self._compact(len(self._window) - zab_peer.DIFF_WINDOW)

    def _apply_ready(self, obj: str) -> None:
        """Deliver the contiguous chosen prefix of one object."""
        chosen = self._chosen.get(obj)
        if not chosen:
            return
        next_slot = self._applied.get(obj, 0)
        window = self._window
        sentinel, on_commit = self.sentinel, self.on_commit
        new = tuple.__new__
        while next_slot in chosen:
            ballot, txn = chosen[next_slot]
            if sentinel is not None:
                sentinel.on_object_commit(self, obj, next_slot, ballot, txn)
            if on_commit is not None:
                on_commit(new(Zxid, (ballot[0], next_slot)), txn)
            self.commits_delivered += 1
            window.append(obj)
            next_slot += 1
        self._applied[obj] = next_slot
        self._gapped.pop(obj, None)
        if len(window) > 2 * zab_peer.DIFF_WINDOW:
            self._compact(len(window) - zab_peer.DIFF_WINDOW)

    # ---------------------------------------------------------------- forward

    def _on_submit_req(self, msg: SubmitReq) -> None:
        if self.is_observer:
            self.forward_submit(msg.txn)
            return
        if self.on_submit is not None:
            self.on_submit(msg.txn)
        else:
            self.submit(msg.txn)

    # ----------------------------------------------------------------- timers

    def _on_tick(self) -> None:
        stall = self.config.election_timeout_ms
        now = self.env.now
        # Stalled or rejected steals: rebid above the highest ballot
        # seen, after the per-voter stagger.
        for obj in sorted(self._stealing):
            steal = self._stealing[obj]
            due = (
                steal.retry_at is not None and now >= steal.retry_at
            ) or (now - steal.started > stall)
            if due:
                del self._stealing[obj]
                self._begin_steal(obj, floor=steal.highest_seen)
        # Queued objects with no steal in flight (demoted mid-queue).
        for obj in sorted(self._queued):
            if self._queued[obj] and obj not in self._owned:
                self._ensure_steal(obj)
        # Unchosen phase-2 entries: retransmit the Accept round.
        for key in sorted(self._p2):
            state = self._p2[key]
            if now - state.sent < stall:
                continue
            obj, slot = key
            if tuple(self._owned.get(obj, ZERO_BALLOT)) != state.ballot:
                # Demoted: the thief's recovery re-proposes this slot.
                del self._p2[key]
                continue
            state.sent = now
            self.proposals_retransmitted += 1
            for voter in self._zone_peers:
                if voter not in state.acks:
                    self._send(voter, Accept(obj, state.ballot, slot,
                                             state.txn, self.addr))
        # Gap repair.
        if self._gapped:
            self._gapped = {}
            self._send_resync_request()
