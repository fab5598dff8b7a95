"""Synchronous ZooKeeper-style client for simulation processes.

Every operation returns a kernel :class:`~repro.sim.kernel.Event`; user
processes ``yield`` it to block until the reply arrives::

    def app(env, client):
        yield client.connect()
        path = yield client.create("/config", b"v1")
        data, stat = yield client.get_data("/config", watch=True)

Guarantees mirror ZooKeeper's client contract: one session, FIFO order of
the client's own requests (the client is synchronous: each call is issued
when the caller yields on it), linearizable writes via the ensemble, and
possibly-stale local reads. Failures surface as exceptions raised at the
``yield``: :class:`ApiError` subclasses for replicated outcomes,
:class:`ConnectionLossError` on request timeout,
:class:`SessionExpiredError` when the session is gone.

Request path (one for every call, connect included): a logical operation
is ONE :class:`Event` — the one the caller yields — and one
:class:`_Request` record; no kernel ``Process`` is involved. The op gets
one cxid, reused verbatim by every retry, so the server's reply cache
(keyed ``(session_id, cxid)``) answers a timed-out-but-committed write
instead of applying it twice. The reply handler triggers the caller's
event directly. Timeouts cost one heap entry per *client*, not per
request: outstanding requests sit in issue order with their deadlines and
a single ``call_at`` guard is armed for the earliest one; when it fires it
expires what is overdue — retry after backoff while ``max_retries`` lasts,
else :class:`ConnectionLossError` — and re-arms for the next live deadline.
The plain calls (``get_data``, ``connect``, ...) are the ``max_retries=0``
case of the ``*_retrying`` ones.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.net.topology import NodeAddress
from repro.net.transport import Message, Network
from repro.sim.kernel import Environment, Event, Ticker
from repro.zk.errors import (
    ConnectionLossError,
    SessionExpiredError,
    error_from_code,
)
from repro.zk.ops import (
    CheckVersionOp,
    CloseSessionOp,
    CreateOp,
    DeleteOp,
    ExistsOp,
    GetChildrenOp,
    GetDataOp,
    MultiOp,
    SetDataOp,
    SyncOp,
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
from repro.zk.server import SESSION_EXPIRED_CODE

__all__ = ["ZkClient"]

_INF = float("inf")


class _Request:
    """One logical operation: the caller's event plus its retry state.

    ``cxid is None`` marks a connect. The record is in the client's
    outstanding queue while a reply is awaited, and nowhere during backoff.
    """

    __slots__ = ("event", "cxid", "op", "retries_left", "delay", "deadline")

    def __init__(self, event: Event, cxid: Optional[int], op: Any,
                 retries_left: int, delay: float):
        self.event = event
        self.cxid = cxid
        self.op = op
        self.retries_left = retries_left
        self.delay = delay
        self.deadline = 0.0


class ZkClient:
    """A coordination-service client bound to one server."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        addr: NodeAddress,
        server_addr: NodeAddress,
        session_timeout_ms: float = 6000.0,
        request_timeout_ms: float = 10000.0,
        name: str = "",
    ):
        self.env = env
        self.net = net
        self.addr = addr
        self.server_addr = server_addr
        self.session_timeout_ms = session_timeout_ms
        self.request_timeout_ms = request_timeout_ms
        self.name = name or str(addr)

        self.inbox = net.register(addr)
        self.inbox.consume(self._on_envelope)
        self.session_id: Optional[str] = None
        self.expired = False

        self._cxid = 0
        self._pending: Dict[int, Event] = {}
        self._connect_event: Optional[Event] = None
        # Requests awaiting a reply, in issue order; completed ones are
        # dropped from the head at the next send and when the guard fires.
        self._outstanding: Deque[_Request] = deque()
        # Deadline the one live timeout guard is armed for (inf: none).
        self._armed_at = _INF

        #: Watch events received, in arrival order.
        self.watch_events: List[WatchEvent] = []
        #: Optional user callback invoked per watch event.
        self.on_watch: Optional[Callable[[WatchEvent], None]] = None
        # (path filter or None, event) pairs waiting on the next watch.
        self._watch_waiters: List[tuple] = []

        # Metrics.
        self.ops_completed = 0
        self.ops_failed = 0
        self.retries_performed = 0
        # Bound methods reused for every guard and backoff callback.
        self._on_deadline_cb = self._on_deadline
        self._resend_cb = self._resend

        self._alive = True
        self._heartbeater = Ticker(
            env, self.session_timeout_ms / 3.0, self._heartbeat
        )

    # ------------------------------------------------------------------ API

    @property
    def connected(self) -> bool:
        return self.session_id is not None and not self.expired

    def connect(self) -> Event:
        """Open a session with the bound server."""
        return self.connect_retrying(max_retries=0)

    def reconnect(self, server_addr: NodeAddress) -> Event:
        """Bind to a different server and open a fresh session.

        Unlike ZooKeeper session re-establishment, this creates a *new*
        session (old ephemerals die with the old session's timeout).
        """
        self.server_addr = server_addr
        self.session_id = None
        self.expired = False
        return self.connect()

    # -- operations --------------------------------------------------------

    def create(
        self,
        path: str,
        data: bytes = b"",
        ephemeral: bool = False,
        sequential: bool = False,
    ) -> Event:
        """Create a znode; resolves to the actual (sequence-expanded) path."""
        return self.submit_retrying(CreateOp(path, data, ephemeral, sequential), 0)

    def delete(self, path: str, version: int = -1) -> Event:
        """Delete a znode (version -1 = unconditional)."""
        return self.submit_retrying(DeleteOp(path, version), 0)

    def set_data(self, path: str, data: bytes, version: int = -1) -> Event:
        """Overwrite a znode's data; resolves to the new Stat."""
        return self.submit_retrying(SetDataOp(path, data, version), 0)

    def get_data(self, path: str, watch: bool = False) -> Event:
        """Read a znode; resolves to ``(data, stat)``."""
        return self.submit_retrying(GetDataOp(path, watch), 0)

    def exists(self, path: str, watch: bool = False) -> Event:
        """Resolves to the node's Stat, or None if it doesn't exist."""
        return self.submit_retrying(ExistsOp(path, watch), 0)

    def get_children(self, path: str, watch: bool = False) -> Event:
        """Resolves to the sorted list of child names."""
        return self.submit_retrying(GetChildrenOp(path, watch), 0)

    def multi(self, ops) -> Event:
        """Atomic batch of write ops; resolves to a list of results."""
        return self.submit_retrying(MultiOp(tuple(ops)), 0)

    def check_version(self, path: str, version: int) -> CheckVersionOp:
        """Build a version-check op for use inside :meth:`multi`."""
        return CheckVersionOp(path, version)

    def sync(self, path: str = "/") -> Event:
        """Flush the commit pipeline to this client's server."""
        return self.submit_retrying(SyncOp(path), 0)

    def close(self) -> Event:
        """Explicitly close the session (deletes ephemerals)."""
        if self.session_id is None:
            raise RuntimeError(f"{self.name}: not connected")
        return self.submit_retrying(CloseSessionOp(self.session_id), 0)

    # -- retrying operations ------------------------------------------------

    def submit_retrying(
        self,
        op: Any,
        max_retries: int = 6,
        backoff_ms: float = 250.0,
    ) -> Event:
        """Submit ``op`` under a stable cxid, retrying on connection loss.

        Backoff doubles per attempt (capped); replicated failures (ApiError,
        session expiry) are not retried — they are definitive outcomes.
        """
        if self.expired:
            raise SessionExpiredError(self.name)
        if self.session_id is None:
            raise RuntimeError(f"{self.name}: not connected")
        self._cxid = cxid = self._cxid + 1
        event = Event(self.env)
        self._send(_Request(event, cxid, op, max_retries, backoff_ms))
        return event

    def create_retrying(
        self,
        path: str,
        data: bytes = b"",
        ephemeral: bool = False,
        sequential: bool = False,
        max_retries: int = 6,
        backoff_ms: float = 250.0,
    ) -> Event:
        return self.submit_retrying(
            CreateOp(path, data, ephemeral, sequential), max_retries, backoff_ms
        )

    def set_data_retrying(
        self, path: str, data: bytes, version: int = -1,
        max_retries: int = 6, backoff_ms: float = 250.0,
    ) -> Event:
        return self.submit_retrying(
            SetDataOp(path, data, version), max_retries, backoff_ms
        )

    def get_data_retrying(
        self, path: str, watch: bool = False,
        max_retries: int = 6, backoff_ms: float = 250.0,
    ) -> Event:
        return self.submit_retrying(GetDataOp(path, watch), max_retries, backoff_ms)

    def connect_retrying(
        self, max_retries: int = 6, backoff_ms: float = 250.0
    ) -> Event:
        """Connect, retrying lost requests/replies with backoff.

        Safe because the server answers a retried ConnectRequest with the
        already-created session instead of minting a second one.
        """
        if self._connect_event is not None and not self._connect_event.triggered:
            raise RuntimeError(f"{self.name}: connect already in flight")
        event = Event(self.env)
        self._send(_Request(event, None, None, max_retries, backoff_ms))
        return event

    def wait_watch(self, path: Optional[str] = None) -> Event:
        """Event that fires on the next watch notification (for ``path``).

        Pair with a ``watch=True`` read: register the watch first, then
        yield this to block until it fires. Fires with the WatchEvent.
        """
        event = Event(self.env)
        self._watch_waiters.append((path, event))
        return event

    # ----------------------------------------------------------------- guts

    def _send(self, req: _Request) -> None:
        """(Re-)issue ``req`` and put it under the timeout guard."""
        if req.cxid is None:
            self._connect_event = req.event
            body: Any = ConnectRequest(self.addr, self.session_timeout_ms)
        else:
            self._pending[req.cxid] = req.event
            body = OpRequest(self.session_id, req.cxid, req.op)
        self.net.send(self.addr, self.server_addr, body)
        req.deadline = deadline = self.env.now + self.request_timeout_ms
        outstanding = self._outstanding
        while outstanding and outstanding[0].event._ok is not None:
            outstanding.popleft()
        outstanding.append(req)
        # request_timeout_ms is reassignable, so a later request may be due
        # earlier than the armed guard: arm a second one and let the first
        # find itself superseded.
        if deadline < self._armed_at:
            self._armed_at = deadline
            self.env.call_at(deadline, self._on_deadline_cb, deadline)

    def _on_deadline(self, armed_for: float) -> None:
        """The guard fired: expire overdue requests, re-arm for the rest."""
        if armed_for != self._armed_at:
            return  # superseded by a guard armed for an earlier deadline
        live: Deque[_Request] = deque()
        next_deadline = _INF
        for req in self._outstanding:
            if req.event._ok is not None:
                continue  # answered (or failed by session expiry)
            if req.deadline <= armed_for:
                self._expire(req)
            else:
                live.append(req)
                if req.deadline < next_deadline:
                    next_deadline = req.deadline
        self._outstanding = live
        self._armed_at = next_deadline
        if live:
            self.env.call_at(next_deadline, self._on_deadline_cb, next_deadline)

    def _expire(self, req: _Request) -> None:
        # No reply in time. Forget the request (a late reply is dropped),
        # then either back off and resend under the same cxid or give up.
        if req.cxid is None:
            self._connect_event = None
        else:
            self._pending.pop(req.cxid, None)
        self.ops_failed += 1
        if req.retries_left <= 0:
            what = "connect" if req.cxid is None else type(req.op).__name__
            req.event.fail(
                ConnectionLossError(
                    f"{self.name}: {what} timed out after "
                    f"{self.request_timeout_ms} ms"
                )
            )
            return
        req.retries_left -= 1
        self.retries_performed += 1
        self.env.call_in(req.delay, self._resend_cb, req)
        req.delay = min(req.delay * 2.0, 4000.0)

    def _resend(self, req: _Request) -> None:
        # Backoff over. An op whose session died meanwhile fails for good;
        # a connect has no session to lose.
        if req.cxid is not None and (self.expired or self.session_id is None):
            req.event.fail(SessionExpiredError(self.name))
        else:
            self._send(req)

    def _on_envelope(self, msg: Message) -> None:
        # Inbox consumer: replaces the old _pump process.
        if self._alive:
            self._on_message(msg[2])

    def _on_message(self, msg: Any) -> None:
        # OpReply first: op replies dwarf every other message kind.
        if isinstance(msg, OpReply):
            self._on_reply(msg)
        elif isinstance(msg, ConnectReply):
            self.session_id = msg.session_id
            self.expired = False
            if self._connect_event is not None and not self._connect_event.triggered:
                self._connect_event.succeed(msg.session_id)
        elif isinstance(msg, WatchNotify):
            self.watch_events.append(msg.event)
            if self.on_watch is not None:
                self.on_watch(msg.event)
            waiters, self._watch_waiters = self._watch_waiters, []
            for path, event in waiters:
                if event.triggered:
                    continue
                if path is None or path == msg.event.path:
                    event.succeed(msg.event)
                else:
                    self._watch_waiters.append((path, event))
        elif isinstance(msg, HeartbeatAck):
            pass
        elif isinstance(msg, SessionExpiredNotice):
            # Only our *current* session matters; notices for sessions we
            # abandoned (reconnect created a fresh one) are stale.
            if msg.session_id == self.session_id:
                self._on_expired()
        else:
            raise ValueError(f"{self.name}: unexpected message {msg!r}")

    def _on_reply(self, msg: OpReply) -> None:
        event = self._pending.pop(msg.cxid, None)
        if event is None or event.triggered:
            return  # reply raced with our timeout; drop it
        if msg.ok:
            self.ops_completed += 1
            event.succeed(msg.value)
        elif msg.error_code == SESSION_EXPIRED_CODE:
            self.ops_failed += 1
            self._on_expired(pending_event=event)
        else:
            self.ops_failed += 1
            event.fail(error_from_code(msg.error_code or "", msg.error_path))

    def _on_expired(self, pending_event: Optional[Event] = None) -> None:
        self.expired = True
        exc = SessionExpiredError(self.name)
        if pending_event is not None and not pending_event.triggered:
            pending_event.fail(exc)
        pending, self._pending = self._pending, {}
        for event in pending.values():
            if not event.triggered:
                event.fail(SessionExpiredError(self.name))

    def _heartbeat(self) -> None:
        if self.session_id is not None and not self.expired:
            self.net.send(
                self.addr,
                self.server_addr,
                SessionHeartbeat(self.session_id),
            )

    def stop(self) -> None:
        """Tear the client down (no more heartbeats; session will expire)."""
        self._alive = False
        self._heartbeater.stop()
