"""Level-2 site failover (paper §II-D, "flexible level-2 site")."""

from __future__ import annotations

from typing import Any, Set

from repro.net.topology import NodeAddress
from repro.wankeeper.messages import (
    L2Promoted,
    L2PromotionRequest,
    L2PromotionVote,
    WanEpochOp,
)

__all__ = ["L2Failover"]


class L2Failover:
    """One site leader's view of the hub's health and of a promotion vote.

    Site leaders that hear nothing from the whole hub site for
    ``l2_failover_timeout_ms`` elect, by a majority of sites, a
    deterministic successor; its leader commits the :class:`WanEpochOp`
    that re-points every server, and announces itself until all followed.
    Built by the host's leader-state reset, so a newly (re)elected leader
    is "fresh as of now": it must observe a full failover window of silence
    before it may vote the hub dead. Reads from the host server:
    ``env.now``, ``net.send``, ``client_addr`` / ``site``, ``wan``,
    ``wan_epoch``, ``current_l2_site``, ``is_hub_site``, ``peer.is_leader``,
    ``_propose``.
    """

    def __init__(self, host: Any) -> None:
        self.host = host
        self.last_hub_contact = host.env.now
        self.promotion_epoch = 0
        self.promotion_votes: Set[str] = set()
        self.promotion_committed = False
        # New hub: sites whose token inventory is still to be reconciled.
        self.inventory_needed: Set[str] = set()
        # Site: the hub asked for our inventory on the next heartbeat.
        self.send_inventory_next = False

    def successor_site(self) -> str:
        """Deterministic successor every site leader agrees on."""
        l2_site = self.host.current_l2_site
        return min(s for s in self.host.wan.sites if s != l2_site)

    def hub_looks_dead(self) -> bool:
        wan = self.host.wan
        return (
            wan.enable_l2_failover
            and self.host.env.now - self.last_hub_contact
            > wan.l2_failover_timeout_ms
        )

    def _broadcast(self, message: Any, include_hub: bool = True) -> None:
        host = self.host
        for site, addrs in host.wan.site_server_addrs.items():
            if site == host.site:
                continue
            if not include_hub and site == host.current_l2_site:
                continue
            for addr in addrs:
                host.net.send(host.client_addr, addr, message)

    def announce(self) -> None:
        """Post-failover hubs announce themselves so partitioned-away
        sites (including the demoted hub) re-point on reconnect."""
        host = self.host
        self._broadcast(L2Promoted(host.site, host.wan_epoch, host.client_addr))

    def start_promotion(self) -> None:
        host = self.host
        target = host.wan_epoch + 1
        if self.promotion_epoch != target:
            self.promotion_epoch = target
            self.promotion_votes = {host.site}
            self.promotion_committed = False
        if self.promotion_committed:
            return
        self._broadcast(
            L2PromotionRequest(host.site, host.client_addr, target),
            include_hub=False,
        )
        self._maybe_promote()

    def on_promotion_request(self, src: NodeAddress, msg: L2PromotionRequest) -> None:
        host = self.host
        if not host.peer.is_leader or host.is_hub_site:
            return
        agree = (
            msg.epoch == host.wan_epoch + 1
            and msg.candidate_site == self.successor_site()
            and self.hub_looks_dead()
        )
        host.net.send(
            host.client_addr,
            msg.sender,
            L2PromotionVote(host.site, host.client_addr, msg.epoch, agree),
        )

    def on_promotion_vote(self, src: NodeAddress, msg: L2PromotionVote) -> None:
        if not self.host.peer.is_leader:
            return
        if not msg.agree or msg.epoch != self.promotion_epoch:
            return
        self.promotion_votes.add(msg.voter_site)
        self._maybe_promote()

    def _maybe_promote(self) -> None:
        majority = len(self.host.wan.sites) // 2 + 1
        if (
            not self.promotion_committed
            and len(self.promotion_votes) >= majority
        ):
            self.promotion_committed = True
            self.host._propose(WanEpochOp(self.promotion_epoch, self.host.site))

    def on_promoted(self, src: NodeAddress, msg: L2Promoted) -> None:
        if self.host.peer.is_leader and msg.epoch > self.host.wan_epoch:
            self.host._propose(WanEpochOp(msg.epoch, msg.new_l2_site))
