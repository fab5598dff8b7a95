"""The WanKeeper server: what every role of a deployment has in common.

Every WanKeeper deployment runs one ZooKeeper-style ensemble per site; the
leader of each ensemble is that site's **level-1 broker**. One site is
designated the **level-2 (hub) site**: its ensemble doubles as the hub, and
its leader is the level-2 broker that serializes cross-site transactions
and manages token migration (paper Fig. 1/3).

Write routing at a level-1 leader (the paper's extended request-processor
chain):

* tokens for all touched records held locally  -> commit in the site
  ensemble ("local txn", Fig. 2 steps 12-13), then replicate the committed
  result to the hub (step 14), which forwards it to the other sites;
* any token missing -> forward the transaction to the level-2 broker
  (step 8); the hub recalls stray tokens, serializes the transaction in its
  own ensemble, piggybacks any token grants the migration policy decides
  (step 11), and relays the committed result to every site — the origin's
  accepting server answers its client when the origin ensemble applies it
  (step 10).

Fault-tolerance choices follow §II-D: token *ownership* is derived from
committed transactions (grants ride in :class:`WanTxn`; releases/accepts
are marker txns), so any newly elected leader recovers it from its log.
Cross-site streams (site->hub replication, hub->site relay) are
deterministic sequences derived from the committed logs with cumulative
acks and go-back-N retransmission, so they survive leader changes on either
end; their endpoints are the ``streams.Streams`` mixin.

:class:`WanKeeperServer` is what every role shares: lifecycle, write routing,
the commit appliers that derive token and stream state from the log, the
recall/release/return handlers, message dispatch and the tick skeleton.
Each role's volatile state and algorithm is a collaborator rebuilt by
``_reset_wan_leader_state`` (its constructor *is* its reset):
``hubqueue.HubBroker`` (level-2 write path), ``streams.GoBackN`` (one per
WAN stream), ``fractional.StrongReads`` (absent in "local" read mode) and
``failover.L2Failover`` (hub liveness and promotion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Set, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, Ticker
from repro.substrate.peer import Peer, PeerState
from repro.wankeeper.failover import L2Failover
from repro.wankeeper.messages import (
    HUB,
    L2Promoted,
    L2PromotionRequest,
    L2PromotionVote,
    RelayNoopOp,
    RemoteApply,
    SiteReplicate,
    TokenAcceptOp,
    TokenRecall,
    TokenReleaseOp,
    TokenReturn,
    TokenSyncOp,
    WanAck,
    WanEpochOp,
    WanHeartbeat,
    WanHeartbeatAck,
    WanHello,
    WanSubmit,
    WanTxn,
    WanWelcome,
)
from repro.wankeeper.fractional import (
    ReadInvalidate,
    ReadInvalidateAck,
    ReadLeaseGrant,
    ReadLeaseRequest,
    StrongReads,
)
from repro.wankeeper.hubqueue import HubBroker
from repro.wankeeper.policy import ConsecutiveAccessPolicy, MigrationPolicy
from repro.wankeeper.streams import STREAM_STALL_MS, GoBackN, Streams
from repro.wankeeper.tokens import HubTokenState, SiteTokenState, token_keys
from repro.zab.config import EnsembleConfig
from repro.zab.zxid import Zxid
from repro.zk.ops import CloseSessionOp, SyncOp, Txn
from repro.zk.protocol import OpRequest
from repro.zk.server import ZkServer

__all__ = ["WanConfig", "WanKeeperServer", "HUB"]

#: WAN duty period and submit resend timeout.
WAN_TICK_MS = 100.0
SUBMIT_RETRY_MS = 800.0
#: The ~0.1 ms read overhead the paper measures and puts on marshalling (§IV-A).
MARSHALLING_OVERHEAD_MS = 0.08

#: Messages only the acting level-2 broker (the hub site's leader) handles.
_L2_BROKER_ONLY = frozenset({
    WanHello, WanSubmit, SiteReplicate, WanHeartbeat,
    ReadLeaseRequest, ReadInvalidateAck,
})


@dataclass
class WanConfig:
    """Cross-site configuration shared by every WanKeeper server."""

    sites: Tuple[str, ...]
    l2_site: str
    policy_factory: Callable[[], MigrationPolicy] = ConsecutiveAccessPolicy
    #: WK-Hot style pre-placement: token key -> owning site.
    initial_tokens: Dict[str, str] = field(default_factory=dict)
    #: Resend interval of an unanswered token recall (a class constant).
    recall_retry_ms: ClassVar[float] = 400.0
    #: Read consistency: "local" (causal, the paper's default), "forward"
    #: (every read serialized at the hub), "fractional" (§VI read tokens).
    read_mode: str = "local"
    read_lease_ms: float = 3000.0
    #: Level-2 site failover (§II-D "flexible level-2 site"): when enabled,
    #: site leaders that lose contact with the whole hub site for
    #: ``l2_failover_timeout_ms`` elect (majority of sites) a successor
    #: site, whose leader promotes itself to level-2.
    enable_l2_failover: bool = False
    l2_failover_timeout_ms: ClassVar[float] = 10000.0
    #: Client addresses of every site's servers (promotion broadcasts and
    #: hub re-pointing); filled by the deployment builder.
    site_server_addrs: Dict[str, Tuple[NodeAddress, ...]] = field(
        default_factory=dict
    )
    #: Broadcast substrate under each site ensemble (repro.substrate).
    #: The broker layer keys its request processors off "the site leader",
    #: so only single-leader substrates are compatible.
    substrate: str = "zab"

    def __post_init__(self) -> None:
        from repro.substrate import get_substrate

        if not get_substrate(self.substrate).single_leader:
            raise ValueError(
                f"WanKeeper needs a single-leader substrate; "
                f"{self.substrate!r} is multileader (use the flat ZK "
                f"deployment for it)"
            )
        if self.l2_site not in self.sites:
            raise ValueError(f"l2 site {self.l2_site!r} not among sites")
        if self.read_mode not in ("local", "forward", "fractional"):
            raise ValueError(f"unknown read_mode {self.read_mode!r}")
        for key, site in self.initial_tokens.items():
            if site not in self.sites:
                raise ValueError(f"initial token {key!r} at unknown site {site!r}")
        # A token "pinned to the hub's site" is simply held at level-2:
        # grants skip the hub site's own locality, so an L1-owned token at
        # the L2 site is a state the protocol never creates on its own
        # (and the hub cannot recall from itself over the network).
        self.initial_tokens = {
            key: site
            for key, site in self.initial_tokens.items()
            if site != self.l2_site
        }


class WanKeeperServer(Streams, ZkServer):
    """A coordination server participating in a WanKeeper deployment."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        zab_addr: NodeAddress,
        client_addr: NodeAddress,
        config: EnsembleConfig,
        wan: WanConfig,
        name: str = "",
    ):
        # Before the base: its reset reads _initial_state, which reads wan.
        self.wan = wan
        super().__init__(
            env, net, zab_addr, client_addr, config, name=name,
            substrate=wan.substrate,
        )
        # The sites a hub leader relays to, in stream order: the founding
        # sites, then any added site as its first heartbeat arrives.
        self._relay_sites = self._founding_relay_sites()
        # Leader-volatile state, rebuilt on every leadership change.
        self._reset_wan_leader_state()

        self.peer.on_commit = self._on_commit
        self.peer.on_submit = self._on_forwarded_submit
        self.peer.on_leader_activated = self._on_wan_leader_activated
        self.peer.on_state_change = self._on_peer_state

        # Metrics.
        self.local_commits = 0
        self.remote_commits = 0
        self.tokens_granted = 0
        self.tokens_recalled = 0

        self._wan_ticker: Optional[Ticker] = None

    # ----------------------------------------------------------- lifecycle

    @property
    def is_hub_site(self) -> bool:
        """Is this server's site the current level-2 (hub) site?"""
        return self.site == self.current_l2_site

    def _reset_wan_leader_state(self) -> None:
        """Leader-volatile state: each role's constructor is its reset."""
        # Level-1 role: the hub, our stream to it, txns forwarded to it.
        self._l2_addr: Optional[NodeAddress] = None
        self._replicate = GoBackN()
        self._submit_unacked: Dict[Tuple[str, int], Tuple[Txn, float]] = {}
        self._relay_submitted = self._applied_relay_count
        self._releasing: Set[str] = set()
        # Level-2 role: the broker, each site's leader and relay stream.
        self._hub = HubBroker(self)
        self._site_leaders: Dict[str, NodeAddress] = {}
        self._relays = {site: GoBackN() for site in self._absorbed_from_site}
        # Per-destination filtered relay streams: only the acting hub
        # leader reads them, so only it holds them (_hub_relay_streams
        # builds them from _wan_history on first use).
        self._relay_streams: Optional[Dict[str, List[WanTxn]]] = None
        self._accepts_in_flight: Set[str] = set()
        self._absorbing_counts: Dict[str, int] = {}
        # TokenReturns whose site's replicate stream we have not yet
        # absorbed up to the release point (TokenReturn.seq): accepting
        # early would let the hub serialize writes for the returned keys
        # against a tree missing the site's final local commits.
        self._deferred_returns: Dict[str, List[TokenReturn]] = {}
        # Sessions awaiting ephemeral garbage collection.
        self._gc_sessions: Dict[str, float] = {}
        self._reads = StrongReads(self) if self.wan.read_mode != "local" else None
        self._failover = L2Failover(self)
        self._wan_handlers = self._wan_handler_table()

    def _wan_handler_table(self) -> Dict[type, Any]:
        """Rebuilt with the collaborators it points into, never per message."""
        failover, reads = self._failover, self._reads
        table: Dict[type, Any] = {
            WanHello: self._on_wan_hello,
            WanWelcome: self._on_wan_welcome,
            WanSubmit: self._hub.on_submit,
            SiteReplicate: self._on_site_replicate,
            RemoteApply: self._on_remote_apply,
            WanAck: self._on_wan_ack,
            TokenRecall: self._on_token_recall,
            TokenReturn: self._on_token_return,
            WanHeartbeat: self._on_wan_heartbeat,
            WanHeartbeatAck: self._on_wan_heartbeat_ack,
            L2PromotionRequest: failover.on_promotion_request,
            L2PromotionVote: failover.on_promotion_vote,
            L2Promoted: failover.on_promoted,
        }
        if reads is not None:
            table[ReadLeaseRequest] = reads.on_request
            table[ReadLeaseGrant] = reads.on_grant
            table[ReadInvalidate] = reads.on_invalidate
            table[ReadInvalidateAck] = reads.on_invalidate_ack
        return table

    def start(self) -> None:
        super().start()
        self._wan_ticker = Ticker(self.env, WAN_TICK_MS, self._wan_tick)

    def crash(self) -> None:
        if self._alive:
            self._wan_ticker.stop()
        super().crash()

    def restart(self) -> None:
        # The replicated-derived WAN state is kept, like the tree, at the
        # peer's applied point. What the crash took is the leader's count
        # of admitted writes and pending recalls, and the added sites heard
        # of by heartbeat.
        self.site_tokens = self.site_tokens.copy()
        self._relay_sites = self._founding_relay_sites()
        super().restart()
        # Volatile WAN state is gone with the crash; rebuild and resume
        # the WAN duties (probing, heartbeats, stream retransmission).
        self._reset_wan_leader_state()
        self._wan_ticker = Ticker(self.env, WAN_TICK_MS, self._wan_tick)

    def install(self, state: Dict[str, Any]) -> None:
        super().install(state)
        self._relay_sites = self._founding_relay_sites()
        self._hub.queue.stale = True

    def _initial_state(self) -> Dict[str, Any]:
        """The base's replicated state plus the token and stream
        bookkeeping every server derives by applying the log."""
        wan = self.wan
        return {
            **super()._initial_state(),
            # WAN epoch and hub identity: bumped by committed WanEpochOp
            # markers when level-2 failover promotes a successor site.
            "wan_epoch": 0,
            "current_l2_site": wan.l2_site,
            "site_tokens": SiteTokenState(self.site, owned={
                key for key, site in wan.initial_tokens.items()
                if site == self.site
            }),
            "hub_tokens": HubTokenState(dict(wan.initial_tokens)),
            # (key, site) -> number of committed grants, derived from the
            # replicated WanTxn stream on every server (symmetric, so it
            # survives restarts and level-2 failovers). Used to detect
            # recalls that overtook their grant on the relay stream.
            "_grant_counts": {},
            "_seen_wan_ids": set(),
            # Every applied WanTxn, in commit order, on *every* server
            # (symmetric) so any site can take over as hub: a hub leader's
            # per-site relay streams are built from it.
            "_wan_history": [],
            # Cumulative count of applied txns serialized at each other site.
            "_absorbed_from_site": {
                site: 0 for site in wan.sites if site != self.site
            },
            # Locally-serialized txns, in commit order.
            "_replicate_stream": [],
            # Count of relayed (non-local) applies since the last epoch marker.
            "_applied_relay_count": 0,
        }

    def _founding_relay_sites(self) -> List[str]:
        return [site for site in self.wan.sites if site != self.site]

    def _on_wan_leader_activated(self, _peer: Peer) -> None:
        self._reset_wan_leader_state()

    def _on_peer_state(self, peer: Peer) -> None:
        if peer.state != PeerState.LEADING:
            self._relay_streams = None  # only the acting hub leader holds them

    # ------------------------------------------------------------- routing

    def _route_write(self, txn: Txn) -> None:
        if self.peer.is_leader:
            self._leader_route(txn)
        elif self.is_serving:
            self.peer.forward_submit(txn)
        else:
            self._unrouted_txns.append(txn)

    def _on_forwarded_submit(self, payload: Any) -> None:
        """Leader hook for txns forwarded through the site ensemble."""
        if isinstance(payload, Txn):
            self._leader_route(payload)
        else:
            # A WanTxn already serialized elsewhere, or a marker op: just
            # broadcast it locally.
            self._propose(payload)

    def _propose(self, payload: Any) -> None:
        if self.peer.is_leader:
            self.peer.submit(payload)

    def _leader_route(self, txn: Txn) -> None:
        """The paper's worker/master request processor (Fig. 3)."""
        op = txn.op
        if isinstance(op, CloseSessionOp):
            # Session teardown spans unknown records; always hub-serialized.
            if self.is_hub_site:
                self._hub.admit(txn, self.site)
            else:
                self._wan_submit(txn)
            return
        needed = token_keys(op)
        if self.is_hub_site:
            reads = self._reads
            if all(self.hub_tokens.at_hub(key) for key in needed) and not (
                reads is not None and reads.live_holders(needed)
            ):
                self._hub.serialize(txn, needed, self.site)
            else:
                self._hub.admit(txn, self.site)
            return
        if self.site_tokens.holds_all(needed):
            self.site_tokens.admit(needed)
            self.local_commits += 1
            if self.sentinel is not None:
                self.sentinel.on_local_admit(self, needed)
            if self._trace is not None:
                self._trace.emit(self.env.now, "wan", "local-admit", self.name,
                                 {"keys": sorted(needed),
                                  "session": txn.session_id,
                                  "cxid": txn.cxid})
            self._propose(WanTxn(txn=txn, serialized_at=self.site))
        else:
            self._wan_submit(txn)

    def _wan_submit(self, txn: Txn) -> None:
        """Forward a transaction to the level-2 broker (Fig. 2 step 8)."""
        self.remote_commits += 1
        self._submit_unacked[txn.key] = (txn, self.env.now)
        if self._l2_addr is not None:
            self.net.send(
                self.client_addr,
                self._l2_addr,
                WanSubmit(self.site, self.client_addr, txn),
            )

    def assign_token(self, key: str, site: str) -> None:
        """Admin knob (paper §I): move ``key``'s token to ``site`` now.

        Only valid on the acting level-2 leader. Pass the hub's own site to
        pin the token at level-2 (recalled and kept home).
        """
        if not self.is_hub_site or not self.peer.is_leader:
            raise RuntimeError(f"{self.name} is not the level-2 broker")
        if site not in self.wan.site_server_addrs and site not in self.wan.sites:
            raise ValueError(f"unknown site {site!r}")
        self._system_cxid += 1
        txn = Txn(
            session_id=f"__admin__:{self.name}",
            cxid=self._system_cxid,
            origin=self.client_addr,
            op=SyncOp("/"),
        )
        self._hub.pin(txn, key, site)

    # ------------------------------------------------------------- commits

    def _on_commit(self, zxid: Zxid, payload: Any) -> None:
        if isinstance(payload, WanTxn):
            self._commit_wan_txn(zxid, payload)
        elif isinstance(payload, TokenReleaseOp):
            self._commit_release(payload)
        elif isinstance(payload, TokenAcceptOp):
            self._commit_accept(payload)
        elif isinstance(payload, WanEpochOp):
            self._commit_wan_epoch(payload)
        elif isinstance(payload, RelayNoopOp):
            self._seen_wan_ids.add(payload.wan_id)
            self._applied_relay_count += 1
        elif isinstance(payload, TokenSyncOp):
            self._commit_token_sync(payload)
        else:
            raise TypeError(f"{self.name}: unexpected commit payload {payload!r}")

    def _commit_wan_epoch(self, op: WanEpochOp) -> None:
        """Adopt a new WAN epoch: re-point at the (possibly new) hub."""
        if op.epoch <= self.wan_epoch:
            return  # stale/duplicate marker
        self.wan_epoch = op.epoch
        self.current_l2_site = op.l2_site
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "wan-epoch", self.name,
                             {"epoch": op.epoch, "l2_site": op.l2_site})
        # The new hub replays its filtered history from seq 1.
        self._applied_relay_count = 0
        if self.peer.is_leader:
            self._reset_wan_leader_state()
            if self.is_hub_site:
                # Freshly promoted hub: learn every site's token inventory
                # and site-leader address via their heartbeats; every
                # site's replay of our relay stream starts from zero.
                others = [site for site in self.wan.sites if site != self.site]
                self._failover.inventory_needed = set(others)
                self._relays = {site: GoBackN(acked=0) for site in others}

    def _commit_token_sync(self, op: TokenSyncOp) -> None:
        """Inventory reconciliation: ``site`` owns exactly ``keys``."""
        for key in sorted(self.hub_tokens.held_by(op.site)):
            if key not in op.keys:
                self.hub_tokens.accept_return(key)
        for key in op.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            self.hub_tokens.grant(key, op.site)
        self._hub.queue.stale = True
        if self.peer.is_leader and self.is_hub_site:
            self._hub.pump()

    def _commit_wan_txn(self, zxid: Zxid, wan_txn: WanTxn) -> None:
        txn = wan_txn.txn
        wan_id = txn.key
        serialized_at = wan_txn.serialized_at
        self._seen_wan_ids.add(wan_id)
        for grant in wan_txn.grants:
            self.hub_tokens.grant(grant.key, grant.site)
            if grant.key in self._hub.queue.waiters:
                # A key some queued entry waits for just left the hub.
                self._hub.queue.stale = True
            counter_key = (grant.key, grant.site)
            self._grant_counts[counter_key] = (
                self._grant_counts.get(counter_key, 0) + 1
            )
            if self._trace is not None:
                self._trace.emit(self.env.now, "wan", "token-grant", self.name,
                                 {"key": grant.key, "site": grant.site})
            if grant.site == self.site:
                self.site_tokens.grant(grant.key)
                if self.sentinel is not None and self.peer.is_leader:
                    self.sentinel.on_token_grant(self, grant.key, grant.site)
        # Stream bookkeeping is symmetric (every server maintains it) so
        # any site can take over as hub after a level-2 failover.
        self._wan_history.append(wan_txn)
        streams = self._relay_streams
        if streams is not None:  # we are the acting hub leader
            for site, stream in streams.items():
                if serialized_at != site:
                    stream.append(wan_txn)
        if serialized_at == self.site:
            self._replicate_stream.append(wan_txn)
        else:
            self._applied_relay_count += 1
            if serialized_at != HUB:
                self._absorbed_from_site[serialized_at] = (
                    self._absorbed_from_site.get(serialized_at, 0) + 1
                )

        self._commit_client_txn(zxid, txn)

        if not self.peer.is_leader:
            return
        # ---- leader-only post-commit duties ----
        if self.is_hub_site:
            hub = self._hub
            if serialized_at == HUB:
                hub.committed(wan_id, token_keys(txn.op))
            elif serialized_at != self.site:
                if wan_id in hub.queue.entries:
                    hub.absorbed(wan_id)
                self._ack_site(serialized_at)
                deferred = self._deferred_returns.pop(serialized_at, None)
                if deferred:
                    # Stream advanced: replay parked returns (any still
                    # ahead of the absorb watermark simply re-park).
                    for parked in deferred:
                        self._on_token_return(parked.sender, parked)
                # Replicated local commits feed the learning policies (the
                # broker's access log covers migrated-token activity too).
                for key in sorted(token_keys(txn.op)):
                    hub.policy.observe(key, serialized_at)
            self._flush_relays()
            hub.pump()
            if self._reads is not None:
                self._reads.pump()
        else:
            if serialized_at == self.site:
                if wan_id in self._submit_unacked:
                    # A write this leader forwarded and then admitted
                    # itself: the hub absorbs it from the stream instead.
                    del self._submit_unacked[wan_id]
                ready = self.site_tokens.retire(token_keys(txn.op))
                if ready:
                    self._release_keys(ready)
                self._flush_replicates()
            else:
                self._submit_unacked.pop(wan_id, None)
                self._ack_hub()

    def _commit_release(self, op: TokenReleaseOp) -> None:
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "token-release", self.name,
                             {"keys": list(op.keys)})
        for key in op.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            self.site_tokens.release(key)
            self._releasing.discard(key)
        if self.peer.is_leader:
            self._return_tokens(op.keys)

    def _commit_accept(self, op: TokenAcceptOp) -> None:
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "token-accept", self.name,
                             {"keys": list(op.keys), "site": op.site})
        hub = self._hub
        for key in op.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            self.hub_tokens.accept_return(key)
            self._accepts_in_flight.discard(key)
            hub.recall_sent_at.pop(key, None)
            hub.policy.forget(key)
        hub.queue.stale = True
        if self.peer.is_leader and self.is_hub_site:
            hub.pump()
            if self._reads is not None:
                self._reads.pump()

    # --------------------------------------------------------- token recall

    def _on_token_recall(self, src: NodeAddress, msg: TokenRecall) -> None:
        """Level-1 leader: the hub terminated our lease on ``msg.keys``."""
        if src.site != self.current_l2_site or not self.peer.is_leader:
            return
        keys = msg.keys
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "token-recall", self.name,
                             {"keys": list(keys)})
        expected = dict(zip(keys, msg.grant_counts or ()))
        releasable: Set[str] = set()
        not_owned: List[str] = []
        for key in keys:  # lint: iteration-order-ok (Tuple[str, ...])
            if key in self._releasing:
                continue
            if key not in self.site_tokens.owned:
                seen = self._grant_counts.get((key, self.site), 0)
                if seen < expected.get(key, 0):
                    # The recall overtook its grant on the relay stream:
                    # the token is still in flight to us. Answering
                    # "not owned" now would let the hub re-grant the key
                    # elsewhere while our stale grant later lands — two
                    # owners. Stay silent; the hub retries the recall
                    # after recall_retry_ms, by which time the stream has
                    # caught up and the normal release path runs.
                    continue
                not_owned.append(key)
            elif self.site_tokens.start_recall(key):
                releasable.add(key)
            # else: inflight txns drain first; retire() releases later.
        if releasable:
            self._release_keys(releasable)
        if not_owned:
            # Idempotent re-ack: we no longer hold these (return lost?).
            self._return_tokens(tuple(sorted(not_owned)))

    def _return_tokens(self, keys: Tuple[str, ...]) -> None:
        """Level-1 leader: tell the hub ``keys`` are released."""
        returned = TokenReturn(
            self.site, self.client_addr, keys, len(self._replicate_stream),
            tuple(self._grant_counts.get((key, self.site), 0)
                  for key in keys),  # lint: iteration-order-ok (Tuple)
        )
        if self.is_hub_site:
            # Self-recall completing at the hub: no network hop; accept the
            # return locally so the location map clears and queued txns pump.
            self._on_token_return(self.client_addr, returned)
        elif self._l2_addr is not None:
            self.net.send(self.client_addr, self._l2_addr, returned)

    def _release_keys(self, keys: Set[str]) -> None:
        fresh = {key for key in keys if key not in self._releasing}
        if not fresh:
            return
        self._releasing |= fresh
        self._propose(TokenReleaseOp(tuple(sorted(fresh))))

    def _on_token_return(self, src: NodeAddress, msg: TokenReturn) -> None:
        """Hub leader: a site released tokens; make it durable."""
        if not self.peer.is_leader:
            return
        if (
            msg.site != self.site
            and self._absorbed_from_site.get(msg.site, 0) < msg.seq
        ):
            # The return overtook the site's replicate stream: its final
            # local commits for these keys are still in flight. Accepting
            # now would re-grant/serialize against a stale tree. Park it;
            # absorbing the stream up to msg.seq replays it.
            queue = self._deferred_returns.setdefault(msg.site, [])
            if msg not in queue:
                queue.append(msg)
            return
        # A return of an older grant than the hub's last to this site is
        # stale: the site owns the key again. A newer one is not: after a
        # level-2 failover the new hub may never have seen the old hub's
        # last grant to the site (inventory sync marks the owner, not the
        # count).
        counts = msg.grant_counts or (None,) * len(msg.keys)
        valid = tuple(
            key
            for key, count in zip(msg.keys, counts)  # lint: iteration-order-ok (Tuple)
            if self.hub_tokens.where(key) == msg.site
            and key not in self._accepts_in_flight
            and (count is None
                 or count >= self._grant_counts.get((key, msg.site), 0))
        )
        if not valid:
            return
        self._accepts_in_flight.update(valid)
        self._propose(TokenAcceptOp(valid, msg.site))

    # ---------------------------------------------------------- WAN messages

    def _on_client_message(self, src: NodeAddress, msg: Any) -> None:
        kind = type(msg)
        handler = self._wan_handlers.get(kind)
        if handler is None:
            super()._on_client_message(src, msg)
        elif kind not in _L2_BROKER_ONLY or (
            self.is_hub_site and self.peer.is_leader
        ):
            handler(src, msg)

    # --------------------------------------------------------------- ticker

    def _wan_tick(self) -> None:
        if self._reads is not None:
            self._reads.expire()
        if not self.peer.is_leader:
            # Followers in strong-read modes need the hub address for
            # the forwarded-read path.
            if (
                self._reads is not None
                and not self.is_hub_site
                and self._l2_addr is None
            ):
                self._probe_hub()
            return
        if self.is_hub_site:
            if self.wan_epoch > 0:
                self._failover.announce()
            self._hub.pump()
            # One stalled site rewinds every site's stream, not just its own.
            now, stall_ms = self.env.now, STREAM_STALL_MS
            self._flush_relays(
                rewind=any(s.stalled(now, stall_ms) for s in self._relays.values())
            )
            if self._reads is not None:
                self._reads.pump()
        else:
            self._site_tick()
        self._gc_tick()

    def _site_tick(self) -> None:
        now = self.env.now
        failover = self._failover
        if failover.hub_looks_dead() and self.site == failover.successor_site():
            failover.start_promotion()
        if self._l2_addr is None:
            self._probe_hub()
            return
        # Heartbeat with our relay watermark (plus the token inventory
        # when a freshly promoted hub asked for it).
        inventory = (
            tuple(sorted(self.site_tokens.owned))
            if failover.send_inventory_next
            else None
        )
        self.net.send(
            self.client_addr,
            self._l2_addr,
            WanHeartbeat(
                self.site,
                self.client_addr,
                applied_relay_seq=self._applied_relay_count,
                owned_tokens=inventory,
            ),
        )
        if now - failover.last_hub_contact > 6 * WAN_TICK_MS:
            # Hub leader may have moved; re-probe.
            self._l2_addr = None
            return
        # Retransmit stalled streams and unacked submits.
        self._flush_replicates(
            rewind=self._replicate.stalled(now, STREAM_STALL_MS)
        )
        for wid, (txn, sent_at) in list(self._submit_unacked.items()):
            if now - sent_at >= SUBMIT_RETRY_MS:
                self._submit_unacked[wid] = (txn, now)
                self.net.send(
                    self.client_addr,
                    self._l2_addr,
                    WanSubmit(self.site, self.client_addr, txn),
                )

    def _gc_tick(self) -> None:
        """Re-issue close-session for ephemerals that leaked past a close."""
        now = self.env.now
        for session_id, last in list(self._gc_sessions.items()):
            if now - last < 4 * WAN_TICK_MS:
                continue
            leftovers = self.tree.ephemerals_of(session_id)
            if not leftovers:
                del self._gc_sessions[session_id]
                continue
            self._gc_sessions[session_id] = now
            self.submit_system_txn(CloseSessionOp(session_id))

    def _expire_session(self, session_id: str) -> None:
        super()._expire_session(session_id)
        self._gc_sessions[session_id] = self.env.now

    # ------------------------------------------- strong reads (§VI tokens)

    def _read_delay_ms(self) -> float:
        return self.config.processing_delay_ms + MARSHALLING_OVERHEAD_MS

    def _handle_read(self, src: NodeAddress, msg: OpRequest) -> None:
        if self._reads is None:
            self._read_reply(src, msg)
        else:
            self._reads.read(src, msg)
