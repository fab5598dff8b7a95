"""The coordination server: request-processor chain over a broadcast peer.

Each server owns two network endpoints (as ZooKeeper uses two ports): the
substrate peer's address for ensemble traffic and a client address for
sessions. The broadcast layer underneath is pluggable (see
:mod:`repro.substrate`): Zab by default, WPaxos as the multileader
alternative — the server only ever talks to the peer contract
(``submit``/``forward_submit``/``on_commit``/leadership properties).
The request path mirrors ZooKeeper's processor chain:

* reads  — served from the local tree after a small processing delay
  (possibly stale on followers/observers, as in ZooKeeper);
* writes — wrapped into a :class:`~repro.zk.ops.Txn` and handed to atomic
  broadcast (leader proposes; follower/observer forwards to the leader); the
  *origin* server replies to its client once it applies the commit locally.

WanKeeper's level-1 broker extends this class and overrides the write path
(:meth:`_route_write`) with the token check (paper Fig. 3).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Message, Network
from repro.sim.kernel import Environment, Ticker
from repro.substrate import create_peer
from repro.substrate.peer import PeerState
from repro.zab.config import EnsembleConfig
from repro.zab.zxid import Zxid
from repro.zk.data_tree import ApplyOutcome, DataTree
from repro.zk.ops import (
    CloseSessionOp,
    ExistsOp,
    GetChildrenOp,
    GetDataOp,
    Txn,
    is_write_op,
)
from repro.zk.protocol import (
    ConnectReply,
    ConnectRequest,
    HeartbeatAck,
    OpReply,
    OpRequest,
    SessionExpiredNotice,
    SessionHeartbeat,
    WatchNotify,
)
from repro.zk.records import WatchEvent
from repro.zk.sessions import SessionTracker
from repro.zk.watches import WatchManager

__all__ = ["ZkServer"]

SESSION_EXPIRED_CODE = "session_expired"

#: How many committed (session_id, cxid) keys each replica retains for
#: at-most-once suppression (``apply_counts``), and with them the origin's
#: stored replies. Evicted entries re-open the (remote) window for a
#: duplicate of a very old retry, as in ZooKeeper's bounded committed-log
#: window.
REPLY_CACHE_LIMIT = 8192


class ZkServer:
    """One coordination server (voter or observer) plus its client port."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        zab_addr: NodeAddress,
        client_addr: NodeAddress,
        config: EnsembleConfig,
        name: str = "",
        substrate: str = "zab",
    ):
        if zab_addr.site != client_addr.site:
            raise ValueError("zab and client endpoints must share a site")
        self.env = env
        self.net = net
        self.config = config
        self.name = name or str(client_addr)
        self.site = client_addr.site
        self.client_addr = client_addr
        self.substrate = substrate

        self.peer = create_peer(
            substrate, env, net, zab_addr, config,
            name=f"{self.name}.{substrate}",
        )
        self.peer.on_commit = self._commit_client_txn
        # A substrate peer keeps the state machine's state across a restart
        # and moves a learner below its log window by state transfer
        # (snapshot_state / install_state).
        self.peer.snapshot_state = self.snapshot
        self.peer.install_state = self.install

        self.client_inbox = net.register(client_addr)
        self.client_inbox.consume(self._on_client_envelope)
        # Session ids must stay unique across server incarnations (as in
        # ZooKeeper, where the id embeds the server epoch): apply_counts
        # outlives a restart, so a reborn "owner#1" session would inherit
        # the pre-crash session's cached replies and have its first writes
        # acked without applying.
        self._incarnation = 0
        self._reset_volatile()
        self._system_cxid = 0
        # One bound method reused for every scheduled read completion.
        self._serve_read_cb = self._serve_read

        # The replicated state (see _initial_state). Its at-most-once
        # machinery: apply_counts maps every committed
        # (session_id, cxid) -- the txn's own ``key`` tuple -- to how many
        # times it reached the tree on this replica, on *every* replica,
        # rebuilt deterministically from the commit stream, so a duplicated
        # or retried request that committed already is never re-applied
        # anywhere: membership means "already committed", and at-most-once
        # means every count is 1. It is bounded at REPLY_CACHE_LIMIT keys,
        # evicted oldest first (_apply_order holds the keys in order).
        # _replies holds the OpReply of a key only where the
        # txn's origin is this server, because the origin is the only
        # server that can ever send it: a client (ZkClient, FleetStation)
        # talks to exactly one server; session ids are namespaced by their
        # hosting server and its incarnation, and _handle_op answers
        # SESSION_EXPIRED to a session it does not host before
        # _accept_write reads the table; and a suppressed duplicate commit
        # answers only _pending_writes, which only the accepting server
        # (the origin) fills. A reply leaves with its key.
        self._reset_state()
        self._replies: Dict[Tuple[str, int], OpReply] = {}

        # Observability (repro.trace / repro.invariants); None keeps every
        # instrumentation point a single-branch no-op.
        self._trace = None
        self.sentinel = None

        # Metrics.
        self.reads_served = 0
        self.writes_accepted = 0
        self.commits_applied = 0
        self.replies_from_cache = 0
        self.duplicate_commits_suppressed = 0

        self._alive = False
        self._session_ticker: Optional[Ticker] = None

    # ------------------------------------------------------------------ API

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ZkServer {self.name} {self.peer.state.value}>"

    @property
    def is_leader(self) -> bool:
        return self.peer.is_leader

    @property
    def is_alive(self) -> bool:
        return self._alive

    @property
    def state(self) -> PeerState:
        return self.peer.state

    def start(self) -> None:
        if self._alive:
            raise RuntimeError(f"{self.name} already started")
        self._alive = True
        self.peer.start()
        self._session_ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms * 2, self._session_tick
        )

    def crash(self) -> None:
        if not self._alive:
            return
        self._alive = False
        self.peer.crash()
        self.net.crash(self.client_addr)
        self._session_ticker.stop()

    def _reset_volatile(self) -> None:
        """This incarnation's own state: a restart starts it afresh."""
        self.watches = WatchManager()
        self.sessions = SessionTracker(self._session_owner())
        # (session_id, cxid) -> client NodeAddress awaiting a commit reply.
        self._pending_writes: Dict[Tuple[str, int], NodeAddress] = {}
        # Clients that connected before this server could serve.
        self._deferred_connects: list = []
        # Write txns accepted while no leader was known; retried on tick.
        self._unrouted_txns: list = []
        # Writes this server routed whose commit has not yet arrived;
        # re-routed on the session ticker when overdue (a lost forward or a
        # fallen leader), relying on downstream duplicate suppression.
        self._inflight_txns: Dict[Tuple[str, int], Tuple[Txn, float]] = {}
        # Sessions with a CloseSessionOp in flight (client-initiated or
        # expiry-initiated): the expiry path must not submit a second close
        # while the first one is still working through the broadcast layer.
        self._closing: set = set()

    def _session_owner(self) -> str:
        # Incarnation 0 keeps the historical "addr#N" id shape; restarts
        # get a distinct namespace so ids never collide across crashes.
        if self._incarnation == 0:
            return str(self.client_addr)
        return f"{self.client_addr}+r{self._incarnation}"

    def restart(self) -> None:
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self.net.restart(self.client_addr)
        # Volatile server state is gone. The replicated state
        # (_initial_state), with the origin's replies, is the snapshot:
        # nothing applied while we were down, so it is still the state at
        # the peer's applied point, and the peer resumes there.
        self._incarnation += 1
        self._reset_volatile()
        self.peer.restart()
        self._alive = True
        self._session_ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms * 2, self._session_tick
        )

    # ----------------------------------------------------------- client loop

    def _on_client_envelope(self, msg: Message) -> None:
        # Inbox consumer: replaces the old _client_loop pump process.
        if self._alive:
            self._on_client_message(msg[0], msg[2])

    def _on_client_message(self, src: NodeAddress, msg: Any) -> None:
        # OpRequest first: reads/writes dwarf connects and heartbeats.
        if isinstance(msg, OpRequest):
            self._handle_op(src, msg)
        elif isinstance(msg, ConnectRequest):
            self._handle_connect(src, msg)
        elif isinstance(msg, SessionHeartbeat):
            self._handle_heartbeat(src, msg)
        else:
            raise ValueError(f"{self.name}: unexpected client message {msg!r}")

    @property
    def is_serving(self) -> bool:
        """True once this server is synced into an active ensemble."""
        if self.peer.is_leader:
            return True
        return (
            self.peer.leader_addr is not None
            and self.peer.current_epoch > 0
            and self.peer.state in (PeerState.FOLLOWING, PeerState.OBSERVING)
        )

    def _handle_connect(self, src: NodeAddress, msg: ConnectRequest) -> None:
        if not self.is_serving:
            # ZooKeeper servers refuse clients until synced; we queue the
            # request and answer once the ensemble is ready.
            self._deferred_connects.append((src, msg))
            return
        # Idempotent: a retried ConnectRequest (the reply was lost) must
        # not create a second session, or the first one leaks and expires.
        session = self.sessions.find_by_client(msg.client)
        if session is None:
            session = self.sessions.create(msg.client, msg.timeout_ms, self.env.now)
            if self._trace is not None:
                self._trace.emit(self.env.now, "zk", "session-create",
                                 self.name, {"session": session.session_id})
        else:
            session.last_heard = self.env.now
        self.net.send(
            self.client_addr,
            src,
            ConnectReply(session.session_id, msg.timeout_ms),
        )

    def _handle_heartbeat(self, src: NodeAddress, msg: SessionHeartbeat) -> None:
        if self.sessions.touch(msg.session_id, self.env.now):
            self.net.send(self.client_addr, src, HeartbeatAck(msg.session_id))
        else:
            self.net.send(
                self.client_addr, src, SessionExpiredNotice(msg.session_id)
            )

    def _handle_op(self, src: NodeAddress, msg: OpRequest) -> None:
        session = self.sessions.get(msg.session_id)
        if session is None or session.expired:
            self.net.send(
                self.client_addr,
                src,
                OpReply(msg.session_id, msg.cxid, ok=False,
                        error_code=SESSION_EXPIRED_CODE),
            )
            return
        session.last_heard = self.env.now
        if is_write_op(msg.op):
            self._accept_write(src, msg)
        else:
            # A bare scheduled callback, not a Process per read: reads are
            # the overwhelming majority of traffic and need no generator.
            self.env.call_in(self._read_delay_ms(), self._serve_read_cb, (src, msg))

    # ---------------------------------------------------------------- reads

    def _read_delay_ms(self) -> float:
        """Simulated local processing time of a read (subclasses add to it)."""
        return self.config.processing_delay_ms

    def _serve_read(self, args: Tuple[NodeAddress, OpRequest]) -> None:
        src, msg = args
        if not self._alive:
            return
        self._handle_read(src, msg)

    def _handle_read(self, src: NodeAddress, msg: OpRequest) -> None:
        """Answer a read once its processing delay has elapsed (overridable)."""
        self._read_reply(src, msg)

    def _read_reply(self, src: NodeAddress, msg: OpRequest) -> None:
        """Answer a read from the local tree (synchronous)."""
        self.reads_served += 1
        op = msg.op
        try:
            if isinstance(op, GetDataOp):
                data, stat = self.tree.get_data(op.path)
                if op.watch:
                    self.watches.add_data_watch(op.path, msg.session_id)
                value: Any = (data, stat)
            elif isinstance(op, ExistsOp):
                stat = self.tree.exists(op.path)
                if op.watch:
                    self.watches.add_data_watch(op.path, msg.session_id)
                value = stat
            elif isinstance(op, GetChildrenOp):
                value = self.tree.get_children(op.path)
                if op.watch:
                    self.watches.add_child_watch(op.path, msg.session_id)
            else:
                raise TypeError(f"not a read op: {op!r}")
        except Exception as exc:  # ApiError (NoNode) — replicate as code
            code = getattr(exc, "code", None)
            if code is None:
                raise
            self.net.send(
                self.client_addr,
                src,
                OpReply(
                    msg.session_id,
                    msg.cxid,
                    ok=False,
                    error_code=code,
                    error_path=getattr(exc, "path", ""),
                ),
            )
            return
        self.net.send(
            self.client_addr,
            src,
            OpReply(msg.session_id, msg.cxid, ok=True, value=value),
        )

    # ---------------------------------------------------------------- writes

    def _accept_write(self, src: NodeAddress, msg: OpRequest) -> None:
        key = (msg.session_id, msg.cxid)
        if key in self.apply_counts:
            # A retry of a request that already committed: at-most-once
            # — answer from the stored reply, never re-apply. Only a
            # session's host accepts its writes, and it is their origin.
            cached = self._replies.get(key)
            if cached is None:
                raise RuntimeError(f"{self.name}: {key!r} committed with "
                                   "no reply stored here; not re-submitting")
            self.replies_from_cache += 1
            self.net.send(self.client_addr, src, cached)
            return
        if key in self._pending_writes:
            # Retry of an in-flight write: refresh the reply target;
            # the inflight retransmitter re-routes if the first
            # forward died on the wire.
            self._pending_writes[key] = src
            return
        self.writes_accepted += 1
        if isinstance(msg.op, CloseSessionOp):
            # An expiry firing while this client-initiated close is in
            # flight must not submit a second CloseSessionOp.
            self._closing.add(msg.op.session_id)
        txn = Txn(
            session_id=msg.session_id,
            cxid=msg.cxid,
            origin=self.client_addr,
            op=msg.op,
        )
        self._pending_writes[txn.key] = src
        self._inflight_txns[txn.key] = (txn, self.env.now)
        self._route_write(txn)

    def _route_write(self, txn: Txn) -> None:
        """Hand a write txn to the broadcast layer.

        Overridden by WanKeeper's level-1 broker with the token check.
        """
        self._broadcast_or_forward(txn)

    def _broadcast_or_forward(self, txn: Txn) -> None:
        if self.peer.is_leader:
            self.peer.submit(txn)
        elif self.is_serving:
            self.peer.forward_submit(txn)
        else:
            # No leader known yet: park the txn and retry on the next tick.
            self._unrouted_txns.append(txn)

    def submit_system_txn(self, op: Any) -> None:
        """Submit a server-originated txn (session expiry etc.)."""
        self._system_cxid += 1
        txn = Txn(
            session_id=f"__system__:{self.name}",
            cxid=self._system_cxid,
            origin=self.client_addr,
            op=op,
        )
        # System txns have no client to retry them; the inflight
        # retransmitter is their only recovery from a lost forward.
        self._inflight_txns[txn.key] = (txn, self.env.now)
        self._route_write(txn)

    # ---------------------------------------------------------------- commits

    def _commit_client_txn(self, zxid: Zxid, txn: Txn) -> Optional[ApplyOutcome]:
        """Apply one committed client txn: tree, watches, client reply.

        At-most-once: a second commit of the same (session_id, cxid) — a
        retried request whose first attempt committed after all — is
        suppressed here, strictly at the apply layer, so callers above
        (WanKeeper token/stream bookkeeping) still see every commit.
        Returns None for a suppressed duplicate. The reply is built only
        on the txn's origin, the one server its client can hear from.
        """
        key = txn.key
        if self._inflight_txns:  # empty on a replica that accepts no writes
            self._inflight_txns.pop(key, None)
        counts = self.apply_counts
        if key in counts:
            self.duplicate_commits_suppressed += 1
            if self._trace is not None:
                self._trace.emit(self.env.now, "zk", "dup-suppressed",
                                 self.name,
                                 {"session": txn.session_id,
                                  "cxid": txn.cxid})
            client = self._pending_writes.pop(key, None)
            if client is not None:  # only ever on the origin
                self.net.send(self.client_addr, client, self._replies[key])
            return None
        if isinstance(txn.op, CloseSessionOp):
            self._closing.discard(txn.op.session_id)
            # If the closed session is hosted here, retire it *before*
            # firing the deletion watches below: real ZooKeeper severs the
            # dying session first, so it never receives notifications for
            # its own ephemeral deletions.
            if self.sessions.get(txn.op.session_id) is not None:
                self.sessions.mark_expired(txn.op.session_id)
                self.watches.drop_session(txn.op.session_id)
                if self._trace is not None:
                    self._trace.emit(self.env.now, "zk", "session-close",
                                     self.name,
                                     {"session": txn.op.session_id})
        self.commits_applied += 1
        outcome = self.tree.apply(txn.op, zxid, txn.session_id)
        counts[key] = 1
        order = self._apply_order
        order.append(key)
        if len(order) > REPLY_CACHE_LIMIT:
            evicted = order.popleft()
            del counts[evicted]
            if self._replies:
                self._replies.pop(evicted, None)
        if self._trace is not None:
            self._trace.emit(self.env.now, "zk", "apply", self.name,
                             {"session": txn.session_id, "cxid": txn.cxid,
                              "op": type(txn.op).__name__,
                              "ok": outcome.ok})
        if outcome.events and self.watches.has_watches:
            self._fire_watches(outcome.events)
        if self.sentinel is not None:
            self.sentinel.on_apply(self, txn, outcome)
        origin = txn.origin
        mine = self.client_addr
        if origin is mine or origin == mine:
            if outcome.ok:
                reply = OpReply(txn.session_id, txn.cxid, True, outcome.value)
            else:
                error = outcome.error
                reply = OpReply(txn.session_id, txn.cxid, False, None,
                                error.code, error.path)
            self._replies[key] = reply
            # Reply if its client still waits here (none does for a system
            # txn or a retry the client abandoned).
            if self._pending_writes:
                client = self._pending_writes.pop(key, None)
                if client is not None:
                    self.net.send(mine, client, reply)
        return outcome

    # ------------------------------------------------------ replicated state

    def _initial_state(self) -> Dict[str, Any]:
        """The replicated state, by attribute name, as before the log's
        first entry: the one list behind reset and :meth:`snapshot` (and
        so :meth:`install`, which sets what a snapshot holds). A restart
        keeps every entry. A subclass extends it."""
        return {
            "tree": DataTree(),
            "apply_counts": {},
            "_apply_order": deque(),
        }

    def _reset_state(self) -> None:
        for name, value in self._initial_state().items():
            setattr(self, name, value)

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the replicated state, attribute by attribute: what a
        SNAP ships to a learner the leader's log no longer reaches. A
        container is copied (a SNAP is passed by reference), an int or a
        str is shared."""
        state = {}
        for name in self._initial_state():
            value = getattr(self, name)
            state[name] = value if isinstance(value, (int, str)) else value.copy()
        return state

    def install(self, state: Dict[str, Any]) -> None:
        """Take a leader's :meth:`snapshot` (ours alone) as our state.

        Sessions, pending writes and watches are this server's own and
        stay. A watch fires for what changed under it. At-most-once holds
        across the jump: our stored replies stay for the keys the new
        table keeps, and a write we originated that committed inside the
        snapshot -- one we hold no reply for, and never will -- expires its
        session, so a retry meets SESSION_EXPIRED, not the table.
        """
        old_tree = self.tree
        for name, value in state.items():
            setattr(self, name, value)
        counts = self.apply_counts
        self._replies = {
            key: reply for key, reply in self._replies.items() if key in counts
        }
        self._inflight_txns = {
            key: routed
            for key, routed in self._inflight_txns.items() if key not in counts
        }
        for key in [key for key in self._pending_writes if key in counts]:
            del self._pending_writes[key]
            self._expire_session(key[0])
        if self.watches.has_watches:
            self._fire_watches(self.watches.changes(old_tree, self.tree))
        if self._trace is not None:
            self._trace.emit(self.env.now, "zk", "install", self.name, None)

    def _fire_watches(self, events: Sequence[WatchEvent]) -> None:
        trigger = self.watches.trigger
        for event in events:
            for session_id, fired in trigger(event):
                session = self.sessions.get(session_id)
                if session is not None and not session.expired:
                    if self._trace is not None:
                        self._trace.emit(self.env.now, "zk", "watch-fire",
                                         self.name,
                                         {"session": session_id,
                                          "path": fired.path,
                                          "type": fired.type.name})
                    self.net.send(
                        self.client_addr,
                        session.client,
                        WatchNotify(session_id, fired),
                    )

    # ---------------------------------------------------------------- sessions

    def _session_tick(self) -> None:
        if self.is_serving:
            self._drain_deferred()
            self._retry_inflight_writes()
        for session in self.sessions.expired_sessions(self.env.now):
            self._expire_session(session.session_id)

    def _drain_deferred(self) -> None:
        deferred, self._deferred_connects = self._deferred_connects, []
        for src, msg in deferred:
            self._handle_connect(src, msg)
        unrouted, self._unrouted_txns = self._unrouted_txns, []
        for txn in unrouted:
            # Through the full routing path: by now this server may have
            # become leader and must apply leader-side routing (token
            # checks in WanKeeper).
            self._route_write(txn)

    def _retry_inflight_writes(self) -> None:
        """Re-route writes whose commit never arrived.

        A forward can vanish on a lossy link, or the leader that held the
        proposal can fall over; either way the commit that would clear the
        entry never happens. Re-routing is safe: the Zab leader drops
        duplicate forwards and apply_counts suppresses any duplicate
        commit that slips through.
        """
        now = self.env.now
        overdue = 2 * self.config.election_timeout_ms
        for key, (txn, routed_at) in list(self._inflight_txns.items()):
            if now - routed_at < overdue:
                continue
            self._inflight_txns[key] = (txn, now)
            self._route_write(txn)

    def _expire_session(self, session_id: str) -> None:
        session = self.sessions.get(session_id)
        if session is None or session.expired:
            return
        self.sessions.mark_expired(session_id)
        self.watches.drop_session(session_id)
        if self._trace is not None:
            self._trace.emit(self.env.now, "zk", "session-expire", self.name,
                             {"session": session_id})
        if session_id not in self._closing:
            # A client-initiated CloseSessionOp may already be in flight;
            # submitting a second close here would double-commit the
            # teardown. The in-flight retransmitter still recovers the
            # first close if it was lost on the wire.
            self._closing.add(session_id)
            self.submit_system_txn(CloseSessionOp(session_id))
        self.net.send(
            self.client_addr, session.client, SessionExpiredNotice(session_id)
        )
