"""Fractional read/write tokens (paper §VI, future work).

The paper proposes K read-tokens per record (one per site): a site holding
a read-token serves strongly consistent reads locally; a write requires all
K read-tokens at one site, otherwise it is forwarded to the level-2 broker
— which must first invalidate outstanding read-tokens so no site serves a
stale value after the write commits.

The implementation here realizes that design as *read leases*:

* a server lacking a lease (and whose site lacks the write token) forwards
  the read to the hub; the grant carries the hub's current result and a
  lease, cached at the server;
* reads under a valid lease are served from the lease cache — coherent
  because the hub invalidates all leases on a record *before* committing
  any write to it, and write-token grants are withheld while foreign
  leases exist;
* leases expire after ``read_lease_ms`` as a liveness backstop (an
  unreachable leaseholder cannot block writers forever — the lease is the
  paper's token lease, §II-B).

Three read modes compose the ablation (A4): ``local`` (the paper's default
causal reads), ``forward`` (every read pays a WAN trip to the hub —
linearizable but slow), and ``fractional`` (leases amortize the WAN trip
across repeated reads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.net.topology import NodeAddress
from repro.wankeeper.tokens import token_key
from repro.zk.errors import ApiError
from repro.zk.ops import ExistsOp, GetDataOp
from repro.zk.protocol import OpReply, OpRequest

__all__ = [
    "ReadInvalidate",
    "ReadInvalidateAck",
    "ReadLeaseGrant",
    "ReadLeaseRequest",
    "LeaseEntry",
    "StrongReads",
]


@dataclass(frozen=True)
class ReadLeaseRequest:
    """Server -> hub: strong read of ``path`` (token key ``key``).

    ``lease`` False = one-shot forwarded read (the "forward" mode);
    True = also grant a read lease (the "fractional" mode).
    """

    sender: NodeAddress
    site: str
    path: str
    key: str
    op_kind: str  # "data" | "exists" | "children"
    request_id: int
    lease: bool = True


@dataclass(frozen=True)
class ReadLeaseGrant:
    """Hub -> server: the read result (+ lease when requested)."""

    request_id: int
    path: str
    key: str
    ok: bool
    payload: Any = None  # (data, stat) | stat|None | [children]
    error_code: Optional[str] = None
    lease_until: float = 0.0  # 0 = no lease granted


@dataclass(frozen=True)
class ReadInvalidate:
    """Hub -> leaseholder: drop your lease on ``keys`` (a write is coming)."""

    keys: Tuple[str, ...]


@dataclass(frozen=True)
class ReadInvalidateAck:
    sender: NodeAddress
    keys: Tuple[str, ...]


@dataclass
class LeaseEntry:
    """A server-side cached read lease for one data path."""

    path: str
    key: str
    payload: Any
    expires: float


class StrongReads:
    """Both halves of the design above on one server: the reader's lease
    cache and forwarded reads, and the hub leader's holder table and parked
    reads. Built only when ``read_mode`` is not "local", by the host's
    leader-state reset: leases do not survive a restart or a leadership
    change, and expiry bounds how long one a new hub leader has forgotten
    can outlive it. Reads from the host server: ``env.now``, ``net.send``,
    ``client_addr`` / ``site`` / ``name``, ``wan``, ``tree``,
    ``site_tokens``, ``hub_tokens``, ``is_hub_site``, ``_l2_addr``,
    ``_read_reply``, ``_hub`` (queue, in-flight keys, recalls),
    ``sentinel``, ``_trace``; it bumps ``reads_served``.
    """

    def __init__(self, host: Any) -> None:
        self.host = host
        self.leases: Dict[str, LeaseEntry] = {}  # data path -> lease
        # Reads forwarded to the hub, not yet answered: request id ->
        # (client, request, time filed). A client retry re-asks under the
        # id its op already has instead of filing a second entry.
        self.pending: Dict[int, Tuple[NodeAddress, OpRequest, float]] = {}
        self.request_of: Dict[Tuple[str, int], int] = {}
        self.request_counter = 0
        # Hub leader: token key -> {holder server -> lease expiry}.
        self.holders: Dict[str, Dict[NodeAddress, float]] = {}
        self.parked: List[Tuple[NodeAddress, ReadLeaseRequest]] = []
        self.invalidate_sent_at: Dict[str, float] = {}

    # -- reader half --------------------------------------------------------

    def read(self, src: NodeAddress, msg: OpRequest) -> None:
        host = self.host
        op = msg.op
        key = token_key(op.path)
        # Holding the write token (exclusive: no foreign read leases exist
        # while it is held) makes site-local reads strong; likewise at the
        # hub while the token is home.
        if key in host.site_tokens.owned or (
            host.is_hub_site and host.hub_tokens.at_hub(key)
        ):
            host._read_reply(src, msg)
            return
        leasing = host.wan.read_mode == "fractional" and isinstance(op, GetDataOp)
        if leasing:
            lease = self.lease(op.path)
            if lease is not None:
                if host.sentinel is not None:
                    host.sentinel.on_lease_read(host, op.path, lease)
                host.reads_served += 1
                host.net.send(
                    host.client_addr,
                    src,
                    OpReply(msg.session_id, msg.cxid, ok=True, value=lease.payload),
                )
                return
        if host._l2_addr is None:
            return  # hub unknown; the client's timeout drives a retry
        op_id = (msg.session_id, msg.cxid)
        request_id = self.request_of.get(op_id)
        if request_id is None:
            self.request_counter += 1
            request_id = self.request_of[op_id] = self.request_counter
        self.pending[request_id] = (src, msg, host.env.now)
        if isinstance(op, GetDataOp):
            kind = "data"
        elif isinstance(op, ExistsOp):
            kind = "exists"
        else:
            kind = "children"
        host.net.send(
            host.client_addr,
            host._l2_addr,
            ReadLeaseRequest(
                host.client_addr, host.site, op.path, key, kind, request_id,
                lease=leasing,
            ),
        )

    def lease(self, path: str) -> Optional[LeaseEntry]:
        """The cached lease a read of ``path`` may be served from."""
        lease = self.leases.get(path)
        if lease is not None and lease.expires > self.host.env.now:
            return lease
        return None

    def on_grant(self, src: NodeAddress, msg: ReadLeaseGrant) -> None:
        host = self.host
        pending = self.pending.pop(msg.request_id, None)
        if pending is None:
            return
        client_src, op_msg, _filed = pending
        del self.request_of[(op_msg.session_id, op_msg.cxid)]
        host.reads_served += 1
        if msg.ok:
            if msg.lease_until > host.env.now:
                self.leases[msg.path] = LeaseEntry(
                    msg.path, msg.key, msg.payload, msg.lease_until
                )
            reply = OpReply(
                op_msg.session_id, op_msg.cxid, ok=True, value=msg.payload
            )
        else:
            reply = OpReply(
                op_msg.session_id,
                op_msg.cxid,
                ok=False,
                error_code=msg.error_code,
                error_path=msg.path,
            )
        host.net.send(host.client_addr, client_src, reply)

    def on_invalidate(self, src: NodeAddress, msg: ReadInvalidate) -> None:
        host = self.host
        keys = set(msg.keys)
        if host.sentinel is not None:
            host.sentinel.on_lease_invalidate_ack(host, keys)
        self.leases = {
            path: lease
            for path, lease in self.leases.items()
            if lease.key not in keys
        }
        host.net.send(
            host.client_addr, src, ReadInvalidateAck(host.client_addr, msg.keys)
        )

    def expire(self) -> None:
        """Per tick: drop expired leases, and forwarded reads whose client
        stopped retrying (a grant arriving later is ignored). The horizon,
        ``l2_failover_timeout_ms``, is the config's one statement of how
        long a silent hub is worth waiting for; at 25 recall retries it
        outlasts any read parked behind a token recall."""
        now = self.host.env.now
        horizon = now - self.host.wan.l2_failover_timeout_ms
        for request_id, (_src, msg, filed) in list(self.pending.items()):
            if filed < horizon:
                del self.pending[request_id]
                del self.request_of[(msg.session_id, msg.cxid)]
        if self.leases:
            self.leases = {
                path: lease
                for path, lease in self.leases.items()
                if lease.expires > now
            }

    # -- hub half -----------------------------------------------------------

    def on_request(self, src: NodeAddress, msg: ReadLeaseRequest) -> None:
        self.parked.append((src, msg))
        self.pump()

    def pump(self) -> None:
        """Answer every parked read whose token is home with no write due."""
        host = self.host
        hub = host._hub
        remaining: List[Tuple[NodeAddress, ReadLeaseRequest]] = []
        for src, msg in self.parked:
            token_home = host.hub_tokens.at_hub(msg.key)
            write_pending = msg.lease and (
                hub.key_wanted(msg.key) or hub.inflight_keys.get(msg.key, 0) > 0
            )
            if token_home and not write_pending:
                self._grant(src, msg)
            else:
                if not token_home:
                    hub.request_recalls({msg.key})
                remaining.append((src, msg))
        self.parked = remaining

    def _grant(self, src: NodeAddress, msg: ReadLeaseRequest) -> None:
        host = self.host
        ok, payload, error_code = True, None, None
        try:
            if msg.op_kind == "data":
                payload = host.tree.get_data(msg.path)
            elif msg.op_kind == "exists":
                payload = host.tree.exists(msg.path)
            else:
                payload = host.tree.get_children(msg.path)
        except ApiError as exc:  # ship the code back
            ok, error_code = False, exc.code
        lease_until = 0.0
        if msg.lease and ok:
            lease_until = host.env.now + host.wan.read_lease_ms
            self.holders.setdefault(msg.key, {})[src] = lease_until
            if host.sentinel is not None:
                host.sentinel.on_lease_grant(host, msg.key)
            if host._trace is not None:
                host._trace.emit(host.env.now, "wan", "lease-grant", host.name,
                                 {"key": msg.key, "until": lease_until})
        host.net.send(
            host.client_addr,
            src,
            ReadLeaseGrant(
                msg.request_id, msg.path, msg.key, ok, payload, error_code,
                lease_until,
            ),
        )

    def on_invalidate_ack(self, src: NodeAddress, msg: ReadInvalidateAck) -> None:
        hub = self.host._hub
        for key in msg.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            holders = self.holders.get(key)
            if holders is not None:
                holders.pop(msg.sender, None)
                if not holders:
                    del self.holders[key]
                    hub.queue.stale = True
        hub.pump()

    def live_holders(self, keys) -> Dict[str, List[NodeAddress]]:
        """Unexpired leaseholders per key, pruning expired entries."""
        result: Dict[str, List[NodeAddress]] = {}
        if not self.holders:
            return result
        now = self.host.env.now
        # ``keys`` is often a set; sort so downstream invalidate sends
        # happen in a PYTHONHASHSEED-independent order.
        for key in sorted(keys):
            holders = self.holders.get(key)
            if not holders:
                continue
            live = {
                server: expiry
                for server, expiry in holders.items()
                if expiry > now
            }
            if live:
                self.holders[key] = live
                result[key] = sorted(live)
            else:
                del self.holders[key]
                self.host._hub.queue.stale = True
        return result

    def send_invalidates(self, holders: Dict[str, List[NodeAddress]]) -> None:
        host = self.host
        now = host.env.now
        by_server: Dict[NodeAddress, List[str]] = {}
        for key, servers in holders.items():
            last = self.invalidate_sent_at.get(key, -1e18)
            if now - last < host.wan.recall_retry_ms:
                continue
            self.invalidate_sent_at[key] = now
            for server in servers:
                by_server.setdefault(server, []).append(key)
        for server, keys in by_server.items():
            host.net.send(
                host.client_addr, server, ReadInvalidate(tuple(sorted(keys)))
            )
