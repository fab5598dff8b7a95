"""The WanKeeper server: level-1 site broker and level-2 hub broker.

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
end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, Ticker
from repro.wankeeper.messages import (
    L2Promoted,
    L2PromotionRequest,
    L2PromotionVote,
    RelayNoopOp,
    RemoteApply,
    SiteReplicate,
    TokenAcceptOp,
    TokenGrant,
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
    wan_id_of,
)
from repro.wankeeper.fractional import (
    LeaseEntry,
    ReadInvalidate,
    ReadInvalidateAck,
    ReadLeaseGrant,
    ReadLeaseRequest,
)
from repro.wankeeper.hubqueue import HubQueue, QueuedTxn
from repro.wankeeper.policy import ConsecutiveAccessPolicy, MigrationPolicy
from repro.wankeeper.tokens import HubTokenState, SiteTokenState, token_key, token_keys
from repro.zab.config import EnsembleConfig
from repro.zab.peer import ZabPeer
from repro.zab.zxid import Zxid
from repro.zk.ops import (
    CloseSessionOp,
    ExistsOp,
    GetChildrenOp,
    GetDataOp,
    SyncOp,
    Txn,
)
from repro.zk.protocol import OpReply, OpRequest
from repro.zk.server import ZkServer

__all__ = ["WanConfig", "WanKeeperServer", "HUB"]

#: ``WanTxn.serialized_at`` value for hub-serialized transactions.
HUB = "l2"


@dataclass
class WanConfig:
    """Cross-site configuration shared by every WanKeeper server."""

    sites: Tuple[str, ...]
    l2_site: str
    #: Client addresses of the hub site's servers (probed for the broker).
    hub_server_addrs: Tuple[NodeAddress, ...]
    policy_factory: Callable[[], MigrationPolicy] = ConsecutiveAccessPolicy
    #: WK-Hot style pre-placement: token key -> owning site.
    initial_tokens: Dict[str, str] = field(default_factory=dict)
    wan_tick_ms: float = 100.0
    recall_retry_ms: float = 400.0
    submit_retry_ms: float = 800.0
    stream_stall_ms: float = 800.0
    relay_window: int = 64
    #: Read consistency: "local" (causal, the paper's default), "forward"
    #: (every read serialized at the hub), "fractional" (§VI read tokens).
    read_mode: str = "local"
    read_lease_ms: float = 3000.0
    #: Fault-injection knob (used by ``repro fuzz`` regression artifacts):
    #: disable the recall-overtook-grant guard in ``_handle_recall``,
    #: re-introducing the dual-token race the lossy soak originally found
    #: — a recall that overtakes its own grant on the relay stream gets
    #: answered "not owned", the hub re-grants elsewhere, and the delayed
    #: grant lands later: two owners.
    buggy_recall_race: bool = False
    #: Extra per-request cost of the worker/master request processor and
    #: WAN-session bookkeeping. The paper measures ~0.1 ms higher read
    #: latency for WanKeeper vs ZooKeeper (§IV-A) and attributes it to
    #: this marshalling; we model it as an explicit constant.
    marshalling_overhead_ms: float = 0.08
    #: Level-2 site failover (§II-D "flexible level-2 site"): when enabled,
    #: site leaders that lose contact with the whole hub site for
    #: ``l2_failover_timeout_ms`` elect (majority of sites) a successor
    #: site, whose leader promotes itself to level-2.
    enable_l2_failover: bool = False
    l2_failover_timeout_ms: float = 10000.0
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


class WanKeeperServer(ZkServer):
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
        super().__init__(
            env, net, zab_addr, client_addr, config, name=name,
            substrate=wan.substrate,
        )
        self.wan = wan

        # ---- replicated-derived state (recovered by applying the log) ----
        # WAN epoch and hub identity: bumped by committed WanEpochOp
        # markers when level-2 failover promotes a successor site.
        self.wan_epoch = 0
        self.current_l2_site = wan.l2_site
        self.site_tokens = SiteTokenState(
            self.site,
            owned={
                key for key, site in wan.initial_tokens.items() if site == self.site
            },
        )
        self.hub_tokens = HubTokenState(dict(wan.initial_tokens))
        # (key, site) -> number of committed grants, derived from the
        # replicated WanTxn stream on every server (symmetric, so it
        # survives restarts and level-2 failovers). Used to detect recalls
        # that overtook their grant on the relay stream.
        self._grant_counts: Dict[Tuple[str, str], int] = {}
        self._seen_wan_ids: Set[Tuple[str, int]] = set()
        # Every applied WanTxn, in commit order (lets per-site relay
        # streams be reconstructed for dynamically added sites).
        self._wan_history: List[WanTxn] = []
        # Per-destination filtered relay streams, maintained by *every*
        # server (symmetric) so any site can take over as hub.
        self._relay_streams: Dict[str, List[WanTxn]] = {
            site: [] for site in wan.sites if site != self.site
        }
        # Cumulative count of applied txns serialized at each other site.
        self._absorbed_from_site: Dict[str, int] = {
            site: 0 for site in wan.sites if site != self.site
        }
        # Locally-serialized txns, in commit order.
        self._replicate_stream: List[WanTxn] = []
        # Count of relayed (non-local) applies since the last epoch marker.
        self._applied_relay_count = 0

        # ---- leader-volatile state (reset on leadership change) ----
        self._reset_wan_leader_state()

        self.peer.on_submit = self._on_forwarded_submit
        self.peer.on_leader_activated = self._on_wan_leader_activated

        # Metrics.
        self.local_commits = 0
        self.remote_commits = 0
        self.tokens_granted = 0
        self.tokens_recalled = 0
        #: Replicated-derived token movement history: (time, key, owner)
        #: where owner is a site name or None (back at the hub).
        self.token_history: List[Tuple[float, str, Optional[str]]] = []

        self._wan_ticker: Optional[Ticker] = None

        # WAN message dispatch table, built once (the per-message dict
        # rebuild was a hot spot, exactly like ZabPeer._dispatch).
        self._wan_handlers: Dict[type, Any] = {
            WanHello: self._on_wan_hello,
            WanWelcome: self._on_wan_welcome,
            WanSubmit: self._on_wan_submit,
            SiteReplicate: self._on_site_replicate,
            RemoteApply: self._on_remote_apply,
            WanAck: self._on_wan_ack,
            TokenRecall: self._on_token_recall,
            TokenReturn: self._on_token_return,
            WanHeartbeat: self._on_wan_heartbeat,
            WanHeartbeatAck: self._on_wan_heartbeat_ack,
            L2PromotionRequest: self._on_l2_promotion_request,
            L2PromotionVote: self._on_l2_promotion_vote,
            L2Promoted: self._on_l2_promoted,
            ReadLeaseRequest: self._on_read_lease_request,
            ReadLeaseGrant: self._on_read_lease_grant,
            ReadInvalidate: self._on_read_invalidate,
            ReadInvalidateAck: self._on_read_invalidate_ack,
        }

    # ----------------------------------------------------------- lifecycle

    @property
    def is_hub_site(self) -> bool:
        """Is this server's site the current level-2 (hub) site?"""
        return self.site == self.current_l2_site

    def _hub_addrs(self) -> Tuple[NodeAddress, ...]:
        """Client addresses of the current hub site's servers."""
        return self.wan.site_server_addrs.get(
            self.current_l2_site, self.wan.hub_server_addrs
        )

    def _stream_for(self, dest: str) -> List[WanTxn]:
        """The relay stream for ``dest``, created retroactively for sites
        added after this server started (paper §II-D: a new level-1 site
        joins with a fresh start and receives the full filtered history)."""
        stream = self._relay_streams.get(dest)
        if stream is None:
            stream = [
                txn for txn in self._wan_history if txn.serialized_at != dest
            ]
            self._relay_streams[dest] = stream
        return stream

    def _reset_wan_leader_state(self) -> None:
        # Adversarial (nemesis-injected) flag: a stale leader acks
        # fractional-read invalidations but keeps serving its leases. Any
        # restart or leadership change ends the lie with the leadership.
        self.stale_reads = False
        # Level-1 role.
        self._l2_addr: Optional[NodeAddress] = None
        self._replicate_acked: Optional[int] = None
        self._replicate_sent = 0
        self._replicate_progress_at = 0.0
        self._submit_unacked: Dict[Tuple[str, int], Tuple[Txn, float]] = {}
        self._relay_submitted = self._applied_relay_count
        self._releasing: Set[str] = set()
        # "Fresh" as of now: a newly (re)elected leader must observe a full
        # failover window of silence before it may vote the hub dead.
        self._last_hub_contact = self.env.now
        # Level-2 role.
        self._policy: MigrationPolicy = self.wan.policy_factory()
        self._hub_queue = HubQueue()
        # Re-entrancy latch: serializing a queue entry can commit
        # synchronously (single-voter ensembles), and the commit hook
        # pumps again — which would mutate the queue mid-iteration.
        self._hub_pumping = False
        self._hub_pump_again = False
        # Txn ids serialized (proposed) but not yet committed: a retried
        # WanSubmit arriving in that window must not re-serialize.
        self._hub_inflight_ids: Set[Tuple[str, int]] = set()
        self._recall_sent_at: Dict[str, float] = {}
        self._site_leaders: Dict[str, NodeAddress] = {}
        self._site_sessions: Dict[str, Tuple[str, ...]] = {}
        self._relay_acked: Dict[str, Optional[int]] = {
            site: None for site in self.wan.sites if site != self.current_l2_site
        }
        self._relay_sent: Dict[str, int] = {}
        self._relay_progress_at: Dict[str, float] = {}
        self._accepts_in_flight: Set[str] = set()
        self._absorbing_counts: Dict[str, int] = {}
        # TokenReturns whose site's replicate stream we have not yet
        # absorbed up to the release point (TokenReturn.seq): accepting
        # early would let the hub serialize writes for the returned keys
        # against a tree missing the site's final local commits.
        self._deferred_returns: Dict[str, List[TokenReturn]] = {}
        # Sessions awaiting ephemeral garbage collection.
        self._gc_sessions: Dict[str, float] = {}
        # Strong-read state (forward / fractional modes).
        self._leases: Dict[str, LeaseEntry] = {}  # data path -> lease
        self._lease_pending: Dict[int, Tuple[NodeAddress, Any]] = {}
        self._lease_request_counter = 0
        # Hub leader: token key -> {holder server -> lease expiry}.
        self._read_holders: Dict[str, Dict[NodeAddress, float]] = {}
        self._pending_lease_reads: List[Tuple[NodeAddress, Any]] = []
        self._invalidate_sent_at: Dict[str, float] = {}
        # Hub leader: keys of hub-serialized writes proposed, not yet
        # committed (lease grants are withheld for them).
        self._inflight_hub_keys: Dict[str, int] = {}
        # Level-2 failover (volatile).
        self._promotion_epoch = 0
        self._promotion_votes: Set[str] = set()
        self._promotion_committed = False
        self._inventory_needed: Set[str] = set()
        self._send_inventory_next = False

    def start(self) -> None:
        super().start()
        self._wan_ticker = Ticker(self.env, self.wan.wan_tick_ms, self._wan_tick)

    def crash(self) -> None:
        if self._alive:
            self._wan_ticker.stop()
        super().crash()

    def restart(self) -> None:
        # The peer will replay its durable log from zero: all replicated-
        # derived WAN state must restart empty or it would double-count.
        self._reset_wan_derived_state()
        super().restart()
        # Volatile WAN state is gone with the crash; rebuild and resume
        # the WAN duties (probing, heartbeats, stream retransmission).
        self._reset_wan_leader_state()
        self._wan_ticker = Ticker(self.env, self.wan.wan_tick_ms, self._wan_tick)

    def _on_tree_reset(self, peer) -> None:
        # A SNAP sync rewrites history: derived WAN state rebuilds from
        # zero exactly like the tree does.
        super()._on_tree_reset(peer)
        self._reset_wan_derived_state()

    def _reset_wan_derived_state(self) -> None:
        self.wan_epoch = 0
        self.current_l2_site = self.wan.l2_site
        self.site_tokens = SiteTokenState(
            self.site,
            owned={
                key
                for key, site in self.wan.initial_tokens.items()
                if site == self.site
            },
        )
        self.hub_tokens = HubTokenState(dict(self.wan.initial_tokens))
        self._hub_queue.stale = True
        self._grant_counts = {}
        self._seen_wan_ids = set()
        self._wan_history = []
        self._relay_streams = {
            site: [] for site in self.wan.sites if site != self.site
        }
        self._absorbed_from_site = {
            site: 0 for site in self.wan.sites if site != self.site
        }
        self._replicate_stream = []
        self._applied_relay_count = 0
        self.token_history = []

    def _on_wan_leader_activated(self, _peer: ZabPeer) -> None:
        self._reset_wan_leader_state()
        self._relay_submitted = self._applied_relay_count
        for site in self._absorbed_from_site:
            self._relay_acked[site] = None  # wait for the site's heartbeat

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
        if isinstance(payload, WanTxn):
            # Already serialized elsewhere; just broadcast it locally.
            self._propose(payload)
        elif isinstance(payload, Txn):
            self._leader_route(payload)
        else:
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
                self._hub_admit(txn, self.site)
            else:
                self._wan_submit(txn)
            return
        needed = token_keys(op)
        if self.is_hub_site:
            if all(
                self.hub_tokens.at_hub(key) for key in needed
            ) and not self._live_lease_holders(needed):
                self._hub_serialize(txn, needed, self.site)
            else:
                self._hub_admit(txn, self.site)
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
            self._propose(
                WanTxn(txn=txn, origin_site=self.site, serialized_at=self.site)
            )
        else:
            self._wan_submit(txn)

    def _wan_submit(self, txn: Txn) -> None:
        """Forward a transaction to the level-2 broker (Fig. 2 step 8)."""
        self.remote_commits += 1
        self._submit_unacked[wan_id_of(txn)] = (txn, self.env.now)
        if self._l2_addr is not None:
            self.net.send(
                self.client_addr,
                self._l2_addr,
                WanSubmit(self.site, self.client_addr, txn),
            )

    # ----------------------------------------------------- hub serialization

    def _ephemeral_keys(self, session_id: str) -> Set[str]:
        """Tokens a session teardown needs, per the tree as it is now."""
        return {token_key(path) for path in self.tree.ephemerals_of(session_id)}

    def assign_token(self, key: str, site: str) -> None:
        """Admin knob (paper §I): move ``key``'s token to ``site`` now.

        Only valid on the acting level-2 leader. Pass the hub's own site to
        pin the token at level-2 (recalled and kept home).
        """
        if not (self.is_hub_site and self.peer.is_leader):
            raise RuntimeError(f"{self.name} is not the level-2 broker")
        if site not in self.wan.site_server_addrs and site not in self.wan.sites:
            raise ValueError(f"unknown site {site!r}")
        self._system_cxid += 1
        txn = Txn(
            session_id=f"__admin__:{self.name}",
            cxid=self._system_cxid,
            origin=self.client_addr,
            op=SyncOp("/"),
            origin_site=self.site,
        )
        self._hub_queue.add(
            QueuedTxn(
                txn,
                origin_site=self.site,
                admin_keys=(key,),
                admin_grant=site,
            )
        )
        self._hub_pump()

    def _hub_admit(self, txn: Txn, origin_site: str) -> None:
        wid = wan_id_of(txn)
        if (
            wid in self._seen_wan_ids
            or wid in self._hub_queue
            or wid in self._hub_inflight_ids
        ):
            return
        self._hub_queue.add(QueuedTxn(txn, origin_site))
        self._hub_pump()

    def _hub_pump(self) -> None:
        """Serialize every queued txn whose tokens are home; recall the rest.

        A full FIFO pass runs only when ``_hub_pass_due``; otherwise the
        verdict on every entry already found blocked still stands, and
        only entries admitted since the last pump are evaluated.
        """
        if not self.peer.is_leader or not self._hub_queue.entries:
            return
        if self._hub_pumping:
            # Nested pump (a serialize committed synchronously and its
            # commit hook pumped): flag the outer loop for another pass
            # instead of mutating the queue mid-iteration.
            self._hub_pump_again = True
            return
        self._hub_pumping = True
        try:
            progress = True
            while progress:
                progress = False
                self._hub_pump_again = False
                queue = self._hub_queue
                if self._hub_pass_due(queue):
                    batch = queue.begin_pass()
                else:
                    batch = queue.take_fresh()
                    if not batch:
                        break
                for entry in batch:
                    if self._hub_queue.entries.get(entry.wan_id) is not entry:
                        continue  # removed by a deeper call this pass
                    if self._hub_try(entry):
                        progress = True
                progress = progress or self._hub_pump_again
        except BaseException:
            # Entries after the failure were never looked at.
            self._hub_queue.stale = True
            raise
        finally:
            self._hub_pumping = False

    def _hub_pass_due(self, queue: HubQueue) -> bool:
        """Can re-evaluating an already-blocked entry do anything?

        Only if a token moved or a read lease dropped since the last full
        pass began (``stale``), leases can expire by the clock, a queued
        session teardown re-reads the tree, or the oldest outstanding
        recall is due a retry — the same comparison ``_request_recalls``
        makes per key, applied to the minimum stamp.
        """
        return (
            queue.stale
            or bool(self._read_holders)
            or bool(queue.tree_dependent)
            or not (
                self.env.now - queue.oldest_recall < self.wan.recall_retry_ms
            )
        )

    def _hub_try(self, entry: QueuedTxn) -> bool:
        """Serialize ``entry`` if nothing blocks it; else chase what does."""
        needed = entry.needed
        if needed is None:
            needed = self._ephemeral_keys(entry.txn.op.session_id)
        at_hub = self.hub_tokens.at_hub
        missing = {key for key in needed if not at_hub(key)}
        lease_holders = self._live_lease_holders(needed)
        if missing or lease_holders:
            if missing:
                self._hub_queue.note_recall(self._request_recalls(missing))
            if lease_holders:
                # §VI: a write needs all read tokens back first.
                self._send_invalidates(lease_holders)
            return False
        self._hub_queue.remove(entry)
        self._hub_serialize(
            entry.txn, needed, entry.origin_site,
            admin_grant=entry.admin_grant,
        )
        return True

    def _request_recalls(self, keys: Set[str]) -> float:
        """Recall ``keys`` from their owners, at most once per retry period.

        Returns the oldest recall stamp among the keys still away: no
        retry for any of them is due before that plus ``recall_retry_ms``.
        """
        now = self.env.now
        oldest = inf
        by_site: Dict[str, List[str]] = {}
        for key in sorted(keys):
            owner = self.hub_tokens.where(key)
            if owner is None:
                continue
            last = self._recall_sent_at.get(key, -1e18)
            if now - last < self.wan.recall_retry_ms:
                if last < oldest:
                    oldest = last
                continue
            self._recall_sent_at[key] = now
            if now < oldest:
                oldest = now
            by_site.setdefault(owner, []).append(key)
        for site, site_keys in by_site.items():
            counts = tuple(
                self._grant_counts.get((key, site), 0) for key in site_keys
            )
            if site == self.site:
                # A hub can find its own site in the location map — a
                # freshly promoted level-2 still owns tokens granted while
                # it was level-1, and fault injection can corrupt the map
                # the same way. There is no remote leader to message;
                # run the level-1 recall handler directly.
                self.tokens_recalled += len(site_keys)
                self._handle_recall(tuple(site_keys), counts)
                continue
            leader = self._site_leaders.get(site)
            if leader is not None:
                self.tokens_recalled += len(site_keys)
                self.net.send(
                    self.client_addr,
                    leader,
                    TokenRecall(tuple(site_keys), counts),
                )
        return oldest

    def _key_wanted_by_queue(self, key: str) -> bool:
        queue = self._hub_queue
        if key in queue.waiters:
            return True
        return bool(queue.tree_dependent) and any(
            key in self._ephemeral_keys(entry.txn.op.session_id)
            for entry in queue.tree_dependent.values()
        )

    def _hub_serialize(
        self,
        txn: Txn,
        needed: Set[str],
        origin_site: str,
        admin_grant: Optional[str] = None,
    ) -> None:
        """Commit a txn in the hub ensemble with policy-decided grants."""
        ordered = sorted(needed)
        grants: List[TokenGrant] = []
        if admin_grant is not None:
            # Primary-site assignment knob: force the placement.
            if admin_grant != self.current_l2_site:
                grants = [TokenGrant(key, admin_grant) for key in ordered]
        elif origin_site != self.current_l2_site and not isinstance(
            txn.op, CloseSessionOp
        ):
            # (The hub site's own locality needs no grant, and teardown of
            # dying records is not an access pattern.)
            for key in ordered:
                migrate = self._policy.observe_and_decide(key, origin_site)
                if (
                    migrate
                    and not self._key_wanted_by_queue(key)
                    and not self._read_holders.get(key)
                ):
                    grants.append(TokenGrant(key, origin_site))
        if self.sentinel is not None:
            self.sentinel.on_hub_serialize(self, needed)
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "hub-serialize", self.name,
                             {"keys": ordered,
                              "origin": origin_site,
                              "grants": [(g.key, g.site) for g in grants]})
        self._hub_inflight_ids.add(wan_id_of(txn))
        inflight = self._inflight_hub_keys
        for key in ordered:
            inflight[key] = inflight.get(key, 0) + 1
        op = txn.op
        if isinstance(op, CloseSessionOp) and op.paths is None:
            # Pin the exact ephemeral set so all sites delete the same nodes.
            pinned = dataclasses.replace(
                op, paths=tuple(self.tree.ephemerals_of(op.session_id))
            )
            txn = txn.replace_op(pinned)
        self.tokens_granted += len(grants)
        self._propose(
            WanTxn(
                txn=txn,
                origin_site=origin_site,
                serialized_at=HUB,
                grants=tuple(grants),
            )
        )

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
        elif isinstance(payload, Txn):
            # Plain txn (defensive; everything should be wrapped).
            self._commit_client_txn(zxid, payload)
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
            was_committed = self._promotion_committed
            self._reset_wan_leader_state()
            if self.is_hub_site:
                # Freshly promoted hub: learn every site's token inventory
                # and site-leader address via their heartbeats.
                self._promotion_committed = was_committed
                self._inventory_needed = {
                    site for site in self.wan.sites if site != self.site
                }
                self._relay_acked = {
                    site: 0 for site in self.wan.sites if site != self.site
                }

    def _commit_token_sync(self, op: TokenSyncOp) -> None:
        """Inventory reconciliation: ``site`` owns exactly ``keys``."""
        for key in sorted(self.hub_tokens.held_by(op.site)):
            if key not in op.keys:
                self.hub_tokens.accept_return(key)
        for key in op.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            self.hub_tokens.grant(key, op.site)
        self._hub_queue.stale = True
        if self.peer.is_leader and self.is_hub_site:
            self._hub_pump()

    def _commit_wan_txn(self, zxid: Zxid, wan_txn: WanTxn) -> None:
        txn = wan_txn.txn
        # wan_id_of(txn), inlined: this runs once per commit per replica.
        wan_id = (txn.session_id, txn.cxid)
        serialized_at = wan_txn.serialized_at
        self._seen_wan_ids.add(wan_id)
        self._hub_inflight_ids.discard(wan_id)
        for grant in wan_txn.grants:
            self.hub_tokens.grant(grant.key, grant.site)
            if grant.key in self._hub_queue.waiters:
                # A key some queued entry waits for just left the hub.
                self._hub_queue.stale = True
            counter_key = (grant.key, grant.site)
            self._grant_counts[counter_key] = (
                self._grant_counts.get(counter_key, 0) + 1
            )
            self.token_history.append((self.env.now, grant.key, grant.site))
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
        for site, stream in self._relay_streams.items():
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
            if serialized_at == HUB:
                inflight = self._inflight_hub_keys
                for key in token_keys(txn.op):
                    count = inflight.get(key, 0) - 1
                    if count > 0:
                        inflight[key] = count
                    else:
                        inflight.pop(key, None)
            if serialized_at not in (HUB, self.site):
                self._ack_site(serialized_at)
                deferred = self._deferred_returns.pop(serialized_at, None)
                if deferred:
                    # Stream advanced: replay parked returns (any still
                    # ahead of the absorb watermark simply re-park).
                    for parked in deferred:
                        self._handle_return(parked)
                # Replicated local commits feed the learning policies (the
                # broker's access log covers migrated-token activity too).
                # Nearly every op needs exactly one token; skip the sort
                # allocation for that case.
                keys = token_keys(txn.op)
                ordered = keys if len(keys) == 1 else sorted(keys)
                for key in ordered:  # lint: iteration-order-ok (single element or sorted)
                    self._policy.observe(key, serialized_at)
            self._flush_relays()
            self._hub_pump()
            self._pump_lease_reads()
        else:
            if serialized_at == self.site:
                ready = self.site_tokens.retire(token_keys(txn.op))
                if ready:
                    self._release_keys(ready)
                self._flush_replicates()
            else:
                self._submit_unacked.pop(wan_id, None)
                if self._l2_addr is not None:
                    self.net.send(
                        self.client_addr,
                        self._l2_addr,
                        WanAck(self.site, self._applied_relay_count),
                    )

    def _commit_release(self, op: TokenReleaseOp) -> None:
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "token-release", self.name,
                             {"keys": list(op.keys)})
        for key in op.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            self.site_tokens.release(key)
            self._releasing.discard(key)
        if self.peer.is_leader and self.is_hub_site:
            # Self-recall completing at the hub: accept the return locally
            # so the location map clears and queued txns pump.
            self._handle_return(
                TokenReturn(self.site, self.client_addr, op.keys)
            )
        elif self.peer.is_leader and not self.is_hub_site and self._l2_addr:
            self.net.send(
                self.client_addr,
                self._l2_addr,
                TokenReturn(
                    self.site,
                    self.client_addr,
                    op.keys,
                    len(self._replicate_stream),
                ),
            )

    def _commit_accept(self, op: TokenAcceptOp) -> None:
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "token-accept", self.name,
                             {"keys": list(op.keys), "site": op.site})
        for key in op.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            self.hub_tokens.accept_return(key)
            self.token_history.append((self.env.now, key, None))
            self._accepts_in_flight.discard(key)
            self._recall_sent_at.pop(key, None)
            self._policy.forget(key)
        self._hub_queue.stale = True
        if self.peer.is_leader and self.is_hub_site:
            self._hub_pump()
            self._pump_lease_reads()

    # --------------------------------------------------------- token recall

    def _handle_recall(
        self,
        keys: Tuple[str, ...],
        grant_counts: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Level-1 leader: the hub terminated our lease on ``keys``."""
        if not self.peer.is_leader:
            return
        if self._trace is not None:
            self._trace.emit(self.env.now, "wan", "token-recall", self.name,
                             {"keys": list(keys)})
        expected = dict(zip(keys, grant_counts or ()))
        releasable: Set[str] = set()
        not_owned: List[str] = []
        for key in keys:  # lint: iteration-order-ok (Tuple[str, ...])
            if key in self._releasing:
                continue
            if key not in self.site_tokens.owned:
                seen = self._grant_counts.get((key, self.site), 0)
                if seen < expected.get(key, 0) and not self.wan.buggy_recall_race:
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
            returned = TokenReturn(
                self.site,
                self.client_addr,
                tuple(sorted(not_owned)),
                len(self._replicate_stream),
            )
            if self.is_hub_site:
                self._handle_return(returned)  # self-recall: no network hop
            elif self._l2_addr is not None:
                self.net.send(self.client_addr, self._l2_addr, returned)

    def _release_keys(self, keys: Set[str]) -> None:
        fresh = {key for key in keys if key not in self._releasing}
        if not fresh:
            return
        self._releasing |= fresh
        self._propose(TokenReleaseOp(tuple(sorted(fresh))))

    def _handle_return(self, msg: TokenReturn) -> None:
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
        valid = tuple(
            key
            for key in msg.keys  # lint: iteration-order-ok (Tuple)
            if self.hub_tokens.where(key) == msg.site
            and key not in self._accepts_in_flight
        )
        if not valid:
            return
        self._accepts_in_flight.update(valid)
        self._propose(TokenAcceptOp(valid, msg.site))

    # ------------------------------------------------------------ WAN streams

    def _ack_site(self, site: str) -> None:
        leader = self._site_leaders.get(site)
        if leader is not None:
            self.net.send(
                self.client_addr,
                leader,
                WanAck(site, self._absorbed_from_site[site]),
            )

    def _flush_relays(self, force_from_ack: bool = False) -> None:
        """Hub leader: push relay streams to each site (go-back-N)."""
        for site, stream in self._relay_streams.items():
            acked = self._relay_acked.get(site)
            leader = self._site_leaders.get(site)
            if acked is None or leader is None:
                continue
            if force_from_ack:
                self._relay_sent[site] = acked
            sent = max(self._relay_sent.get(site, 0), acked)
            limit = min(len(stream), acked + self.wan.relay_window)
            for seq in range(sent + 1, limit + 1):
                self.net.send(
                    self.client_addr,
                    leader,
                    RemoteApply(seq, stream[seq - 1]),
                )
            if limit > sent:
                self._relay_sent[site] = limit
                self._relay_progress_at[site] = self.env.now

    def _flush_replicates(self, force_from_ack: bool = False) -> None:
        """Site leader: push locally-committed txns to the hub (go-back-N)."""
        if self._l2_addr is None or self._replicate_acked is None:
            return
        acked = self._replicate_acked
        if force_from_ack:
            self._replicate_sent = acked
        sent = max(self._replicate_sent, acked)
        limit = min(len(self._replicate_stream), acked + self.wan.relay_window)
        for seq in range(sent + 1, limit + 1):
            self.net.send(
                self.client_addr,
                self._l2_addr,
                SiteReplicate(
                    self.site,
                    self.client_addr,
                    seq,
                    self._replicate_stream[seq - 1],
                ),
            )
        if limit > sent:
            self._replicate_sent = limit
            self._replicate_progress_at = self.env.now

    # ---------------------------------------------------------- WAN messages

    def _on_client_message(self, src: NodeAddress, msg: Any) -> None:
        handler = self._wan_handlers.get(type(msg))
        if handler is not None:
            handler(src, msg)
        else:
            super()._on_client_message(src, msg)

    def _on_token_recall(self, src: NodeAddress, msg: TokenRecall) -> None:
        if src.site == self.current_l2_site:
            self._handle_recall(msg.keys, msg.grant_counts)

    def _on_token_return(self, src: NodeAddress, msg: TokenReturn) -> None:
        self._handle_return(msg)

    def _on_wan_hello(self, src: NodeAddress, msg: WanHello) -> None:
        if self.is_hub_site and self.peer.is_leader:
            if msg.is_site_leader:
                self._site_leaders[msg.site] = msg.sender
            self.net.send(self.client_addr, msg.sender, WanWelcome(self.client_addr))

    def _on_wan_welcome(self, src: NodeAddress, msg: WanWelcome) -> None:
        self._l2_addr = msg.l2_addr
        self._last_hub_contact = self.env.now

    def _on_wan_submit(self, src: NodeAddress, msg: WanSubmit) -> None:
        if not (self.is_hub_site and self.peer.is_leader):
            return
        self._site_leaders[msg.site] = msg.sender
        self._hub_admit(msg.txn, msg.site)

    def _on_site_replicate(self, src: NodeAddress, msg: SiteReplicate) -> None:
        if not (self.is_hub_site and self.peer.is_leader):
            return
        self._site_leaders[msg.site] = msg.sender
        absorbed = self._absorbed_from_site.get(msg.site, 0)
        if msg.seq <= absorbed:
            self._ack_site(msg.site)
            return
        pending = self._absorbing_counts.setdefault(msg.site, absorbed)
        if msg.seq != pending + 1:
            return  # out of order; go-back-N will retransmit
        self._absorbing_counts[msg.site] = msg.seq
        self._propose(msg.wan_txn)

    def _on_remote_apply(self, src: NodeAddress, msg: RemoteApply) -> None:
        if self.is_hub_site or not self.peer.is_leader:
            return
        if src.site != self.current_l2_site:
            return  # relay from a demoted hub; ignore
        if msg.seq <= self._applied_relay_count:
            if self._l2_addr is not None:
                self.net.send(
                    self.client_addr,
                    self._l2_addr,
                    WanAck(self.site, self._applied_relay_count),
                )
            return
        if msg.seq != self._relay_submitted + 1:
            return  # gap; hub retransmits from our cumulative ack
        self._relay_submitted = msg.seq
        if msg.wan_txn.wan_id in self._seen_wan_ids:
            # Post-promotion replay of an entry we already applied: commit
            # a no-op marker so the derived relay watermark still advances.
            self._propose(RelayNoopOp(msg.wan_txn.wan_id))
        else:
            self._propose(msg.wan_txn)

    def _on_wan_ack(self, src: NodeAddress, msg: WanAck) -> None:
        if self.is_hub_site:
            if self.peer.is_leader and msg.site in self._relay_acked:
                current = self._relay_acked.get(msg.site) or 0
                self._relay_acked[msg.site] = max(current, msg.seq)
        else:
            if self.peer.is_leader:
                current = self._replicate_acked or 0
                self._replicate_acked = max(current, msg.seq)
                self._last_hub_contact = self.env.now

    def _on_wan_heartbeat(self, src: NodeAddress, msg: WanHeartbeat) -> None:
        if not (self.is_hub_site and self.peer.is_leader):
            return
        self._site_leaders[msg.site] = msg.sender
        self._site_sessions[msg.site] = msg.live_sessions
        if msg.site != self.site:
            self._stream_for(msg.site)  # materialize for late-joining sites
            current = self._relay_acked.get(msg.site)
            self._relay_acked[msg.site] = max(current or 0, msg.applied_relay_seq)
        if msg.owned_tokens is not None and msg.site in self._inventory_needed:
            self._inventory_needed.discard(msg.site)
            self._propose(TokenSyncOp(msg.site, msg.owned_tokens))
        self.net.send(
            self.client_addr,
            msg.sender,
            WanHeartbeatAck(
                l2_addr=self.client_addr,
                known_sites=tuple(sorted(self._site_leaders)),
                absorbed=self._absorbed_from_site.get(msg.site, 0),
                need_inventory=msg.site in self._inventory_needed,
            ),
        )

    def _on_wan_heartbeat_ack(self, src: NodeAddress, msg: WanHeartbeatAck) -> None:
        if self.is_hub_site or not self.peer.is_leader:
            return
        if src.site != self.current_l2_site:
            return  # stale ack from a demoted hub
        self._l2_addr = msg.l2_addr
        self._last_hub_contact = self.env.now
        self._send_inventory_next = msg.need_inventory
        current = self._replicate_acked
        self._replicate_acked = max(current or 0, msg.absorbed)

    # ------------------------------------------- level-2 failover (§II-D)

    def _successor_site(self) -> str:
        """Deterministic successor every site leader agrees on."""
        return min(s for s in self.wan.sites if s != self.current_l2_site)

    def _hub_looks_dead(self) -> bool:
        return (
            self.wan.enable_l2_failover
            and self.env.now - self._last_hub_contact
            > self.wan.l2_failover_timeout_ms
        )

    def _broadcast_all_sites(self, message: Any, include_hub: bool = True) -> None:
        for site, addrs in self.wan.site_server_addrs.items():
            if site == self.site:
                continue
            if not include_hub and site == self.current_l2_site:
                continue
            for addr in addrs:
                self.net.send(self.client_addr, addr, message)

    def _start_promotion(self) -> None:
        target = self.wan_epoch + 1
        if self._promotion_epoch != target:
            self._promotion_epoch = target
            self._promotion_votes = {self.site}
            self._promotion_committed = False
        if self._promotion_committed:
            return
        self._broadcast_all_sites(
            L2PromotionRequest(self.site, self.client_addr, target),
            include_hub=False,
        )
        self._maybe_promote()

    def _on_l2_promotion_request(
        self, src: NodeAddress, msg: L2PromotionRequest
    ) -> None:
        if not self.peer.is_leader or self.is_hub_site:
            return
        agree = (
            self.wan.enable_l2_failover
            and msg.epoch == self.wan_epoch + 1
            and msg.candidate_site == self._successor_site()
            and self._hub_looks_dead()
        )
        self.net.send(
            self.client_addr,
            msg.sender,
            L2PromotionVote(self.site, self.client_addr, msg.epoch, agree),
        )

    def _on_l2_promotion_vote(self, src: NodeAddress, msg: L2PromotionVote) -> None:
        if not self.peer.is_leader:
            return
        if not msg.agree or msg.epoch != self._promotion_epoch:
            return
        self._promotion_votes.add(msg.voter_site)
        self._maybe_promote()

    def _maybe_promote(self) -> None:
        majority = len(self.wan.sites) // 2 + 1
        if (
            not self._promotion_committed
            and len(self._promotion_votes) >= majority
        ):
            self._promotion_committed = True
            self._propose(WanEpochOp(self._promotion_epoch, self.site))

    def _on_l2_promoted(self, src: NodeAddress, msg: L2Promoted) -> None:
        if not self.peer.is_leader:
            return
        if msg.epoch > self.wan_epoch:
            self._propose(WanEpochOp(msg.epoch, msg.new_l2_site))

    # --------------------------------------------------------------- ticker

    def _wan_tick(self) -> None:
        self._expire_leases()
        if not self.peer.is_leader:
            # Followers in strong-read modes need the hub address for
            # the forwarded-read path.
            if (
                self.wan.read_mode != "local"
                and not self.is_hub_site
                and self._l2_addr is None
            ):
                for addr in self._hub_addrs():
                    self.net.send(
                        self.client_addr,
                        addr,
                        WanHello(self.site, self.client_addr,
                                 is_site_leader=False),
                    )
            return
        if self.is_hub_site:
            self._hub_tick()
            self._pump_lease_reads()
        else:
            self._site_tick()
        self._gc_tick()

    def _expire_leases(self) -> None:
        if self.stale_reads or not self._leases:
            return
        now = self.env.now
        self._leases = {
            path: lease
            for path, lease in self._leases.items()
            if lease.expires > now
        }

    def _site_tick(self) -> None:
        now = self.env.now
        if self._hub_looks_dead() and self.site == self._successor_site():
            self._start_promotion()
        if self._l2_addr is None:
            for addr in self._hub_addrs():
                self.net.send(
                    self.client_addr, addr, WanHello(self.site, self.client_addr)
                )
            return
        # Heartbeat with live sessions and our relay watermark (plus the
        # token inventory when a freshly promoted hub asked for it).
        inventory = (
            tuple(sorted(self.site_tokens.owned))
            if self._send_inventory_next
            else None
        )
        self.net.send(
            self.client_addr,
            self._l2_addr,
            WanHeartbeat(
                self.site,
                self.client_addr,
                live_sessions=self.sessions.live_ids_snapshot(),
                applied_relay_seq=self._applied_relay_count,
                owned_tokens=inventory,
            ),
        )
        if now - self._last_hub_contact > 6 * self.wan.wan_tick_ms:
            # Hub leader may have moved; re-probe.
            self._l2_addr = None
            return
        # Retransmit stalled streams and unacked submits.
        stalled = (
            self._replicate_acked is not None
            and self._replicate_sent > self._replicate_acked
            and now - self._replicate_progress_at > self.wan.stream_stall_ms
        )
        self._flush_replicates(force_from_ack=stalled)
        for wid, (txn, sent_at) in list(self._submit_unacked.items()):
            if now - sent_at >= self.wan.submit_retry_ms:
                self._submit_unacked[wid] = (txn, now)
                self.net.send(
                    self.client_addr,
                    self._l2_addr,
                    WanSubmit(self.site, self.client_addr, txn),
                )

    def _hub_tick(self) -> None:
        now = self.env.now
        if self.wan_epoch > 0:
            # Post-failover hubs announce themselves so partitioned-away
            # sites (including the demoted hub) re-point on reconnect.
            self._broadcast_all_sites(
                L2Promoted(self.site, self.wan_epoch, self.client_addr)
            )
        self._hub_pump()
        for site in self._relay_streams:
            acked = self._relay_acked.get(site)
            stalled = (
                acked is not None
                and self._relay_sent.get(site, 0) > acked
                and now - self._relay_progress_at.get(site, 0.0)
                > self.wan.stream_stall_ms
            )
            if stalled:
                self._flush_relays(force_from_ack=True)
                break
        else:
            self._flush_relays()

    def _gc_tick(self) -> None:
        """Re-issue close-session for ephemerals that leaked past a close."""
        now = self.env.now
        for session_id, last in list(self._gc_sessions.items()):
            if now - last < 4 * self.wan.wan_tick_ms:
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
        return self.config.processing_delay_ms + self.wan.marshalling_overhead_ms

    def _handle_read(self, src: NodeAddress, msg: OpRequest) -> None:
        if self.wan.read_mode == "local":
            self._read_reply(src, msg)
            return
        op = msg.op
        key = token_key(op.path)
        # Holding the write token (exclusive: no foreign read leases exist
        # while it is held) makes site-local reads strong; likewise at the
        # hub while the token is home.
        if key in self.site_tokens.owned or (
            self.is_hub_site and self.hub_tokens.at_hub(key)
        ):
            self._read_reply(src, msg)
            return
        if self.wan.read_mode == "fractional" and isinstance(op, GetDataOp):
            lease = self._leases.get(op.path)
            fresh = lease is not None and lease.expires > self.env.now
            if lease is not None and (fresh or self.stale_reads):
                if self.sentinel is not None:
                    self.sentinel.on_lease_read(self, op.path, lease)
                self.reads_served += 1
                self.net.send(
                    self.client_addr,
                    src,
                    OpReply(msg.session_id, msg.cxid, ok=True, value=lease.payload),
                )
                return
        if self._l2_addr is None:
            return  # hub unknown; the client's timeout drives a retry
        self._lease_request_counter += 1
        request_id = self._lease_request_counter
        self._lease_pending[request_id] = (src, msg)
        if isinstance(op, GetDataOp):
            kind = "data"
        elif isinstance(op, ExistsOp):
            kind = "exists"
        else:
            kind = "children"
        want_lease = self.wan.read_mode == "fractional" and kind == "data"
        self.net.send(
            self.client_addr,
            self._l2_addr,
            ReadLeaseRequest(
                self.client_addr, self.site, op.path, key, kind, request_id,
                lease=want_lease,
            ),
        )

    def _on_read_lease_grant(self, src: NodeAddress, msg: ReadLeaseGrant) -> None:
        pending = self._lease_pending.pop(msg.request_id, None)
        if pending is None:
            return
        client_src, op_msg = pending
        self.reads_served += 1
        if msg.ok:
            if msg.lease_until > self.env.now:
                self._leases[msg.path] = LeaseEntry(
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
        self.net.send(self.client_addr, client_src, reply)

    def _on_read_invalidate(self, src: NodeAddress, msg: ReadInvalidate) -> None:
        keys = set(msg.keys)
        if self.sentinel is not None:
            self.sentinel.on_lease_invalidate_ack(self, keys)
        if not self.stale_reads:
            # A stale (adversarial) leader acks the invalidation like an
            # honest one but keeps the leases — the §VI coherence contract
            # broken at the reader; on_lease_read is the oracle.
            self._leases = {
                path: lease
                for path, lease in self._leases.items()
                if lease.key not in keys
            }
        self.net.send(
            self.client_addr, src, ReadInvalidateAck(self.client_addr, msg.keys)
        )

    # -- hub side -----------------------------------------------------------

    def _on_read_lease_request(self, src: NodeAddress, msg: ReadLeaseRequest) -> None:
        if not (self.is_hub_site and self.peer.is_leader):
            return
        self._pending_lease_reads.append((src, msg))
        self._pump_lease_reads()

    def _pump_lease_reads(self) -> None:
        remaining: List[Tuple[NodeAddress, ReadLeaseRequest]] = []
        for src, msg in self._pending_lease_reads:
            token_home = self.hub_tokens.at_hub(msg.key)
            write_pending = msg.lease and (
                self._key_wanted_by_queue(msg.key)
                or self._inflight_hub_keys.get(msg.key, 0) > 0
            )
            if token_home and not write_pending:
                self._grant_lease_read(src, msg)
            else:
                if not token_home:
                    self._request_recalls({msg.key})
                remaining.append((src, msg))
        self._pending_lease_reads = remaining

    def _grant_lease_read(self, src: NodeAddress, msg: ReadLeaseRequest) -> None:
        ok, payload, error_code = True, None, None
        try:
            if msg.op_kind == "data":
                payload = self.tree.get_data(msg.path)
            elif msg.op_kind == "exists":
                payload = self.tree.exists(msg.path)
            else:
                payload = self.tree.get_children(msg.path)
        except Exception as exc:  # ApiError — ship the code back
            code = getattr(exc, "code", None)
            if code is None:
                raise
            ok, error_code = False, code
        lease_until = 0.0
        if msg.lease and ok:
            lease_until = self.env.now + self.wan.read_lease_ms
            self._read_holders.setdefault(msg.key, {})[src] = lease_until
            if self.sentinel is not None:
                self.sentinel.on_lease_grant(self, msg.key)
            if self._trace is not None:
                self._trace.emit(self.env.now, "wan", "lease-grant", self.name,
                                 {"key": msg.key, "until": lease_until})
        self.net.send(
            self.client_addr,
            src,
            ReadLeaseGrant(
                msg.request_id, msg.path, msg.key, ok, payload, error_code,
                lease_until,
            ),
        )

    def _on_read_invalidate_ack(self, src: NodeAddress, msg: ReadInvalidateAck) -> None:
        if not (self.is_hub_site and self.peer.is_leader):
            return
        for key in msg.keys:  # lint: iteration-order-ok (Tuple[str, ...])
            holders = self._read_holders.get(key)
            if holders is not None:
                holders.pop(msg.sender, None)
                if not holders:
                    del self._read_holders[key]
                    self._hub_queue.stale = True
        self._hub_pump()

    def _live_lease_holders(self, keys) -> Dict[str, List[NodeAddress]]:
        """Unexpired leaseholders per key, pruning expired entries."""
        result: Dict[str, List[NodeAddress]] = {}
        if not self._read_holders:
            return result
        now = self.env.now
        # ``keys`` is often a set; sort so downstream invalidate sends
        # happen in a PYTHONHASHSEED-independent order.
        for key in sorted(keys):
            holders = self._read_holders.get(key)
            if not holders:
                continue
            live = {
                server: expiry
                for server, expiry in holders.items()
                if expiry > now
            }
            if live:
                self._read_holders[key] = live
                result[key] = sorted(live)
            else:
                del self._read_holders[key]
                self._hub_queue.stale = True
        return result

    def _send_invalidates(self, holders: Dict[str, List[NodeAddress]]) -> None:
        now = self.env.now
        by_server: Dict[NodeAddress, List[str]] = {}
        for key, servers in holders.items():
            last = self._invalidate_sent_at.get(key, -1e18)
            if now - last < self.wan.recall_retry_ms:
                continue
            self._invalidate_sent_at[key] = now
            for server in servers:
                by_server.setdefault(server, []).append(key)
        for server, keys in by_server.items():
            self.net.send(
                self.client_addr, server, ReadInvalidate(tuple(sorted(keys)))
            )

    # ------------------------------------------------------------ inspection

    def owned_token_count(self) -> int:
        return len(self.site_tokens.owned)

    def migrated_token_count(self) -> int:
        return self.hub_tokens.migrated_count()
