"""The two WAN streams: site -> hub replication and hub -> site relay.

Both streams are sequences derived from the committed log and pushed under
a cumulative ack (paper Fig. 2 steps 10-14). A site leader replicates its
locally-serialized commits to the hub (``SiteReplicate``); the hub leader
relays every commit to each site that did not serialize it
(``RemoteApply``). Each receiver proposes the next entry in order and acks
what its ensemble has applied (``WanAck``). The WAN heartbeater carries the
same watermarks both ways, so a newly elected leader at either end resumes
its stream from the right position. Each end learns where the other is
from the hello/welcome probe and from the stream and heartbeat traffic
itself.

:class:`GoBackN` is one direction's sender state. :class:`Streams` is a
mixin of :class:`repro.wankeeper.server.WanKeeperServer` holding the hub
probe, both stream endpoints and the heartbeat handlers; it reads and
writes the server's derived stream state (``_wan_history``,
``_replicate_stream``, ``_absorbed_from_site``, ``_applied_relay_count``),
its leader-volatile senders (``_replicate``, ``_relays``) and addresses
(``_l2_addr``, ``_site_leaders``), and calls back into ``_propose``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.topology import NodeAddress
from repro.wankeeper.messages import (
    RelayNoopOp,
    RemoteApply,
    SiteReplicate,
    TokenSyncOp,
    WanAck,
    WanHeartbeat,
    WanHeartbeatAck,
    WanHello,
    WanTxn,
    WanWelcome,
)

__all__ = ["GoBackN", "RELAY_WINDOW", "STREAM_STALL_MS", "Streams"]

#: The go-back-N window of every relay and replicate stream, and how long a
#: sender waits past its last new send before it rewinds to the ack.
RELAY_WINDOW = 64
STREAM_STALL_MS = 800.0


class GoBackN:
    """What the receiver confirmed, how far we sent, when we last sent
    anything new; sequence numbers start at 1.

    ``acked is None`` means "new leader: send nothing until the receiver
    reports its watermark". A freshly promoted hub knows every site replays
    from zero and says so with ``acked=0``.

    The sender never holds the sequence — it is re-created on restart and
    SNAP sync — so callers pass its current length and send the numbers
    they get.
    """

    __slots__ = ("acked", "sent", "progress_at")

    def __init__(self, acked: Optional[int] = None) -> None:
        self.acked = acked
        self.sent = 0
        self.progress_at = 0.0

    def ack(self, seq: int) -> None:
        """Cumulative ack or heartbeat watermark: never moves backwards."""
        self.acked = max(self.acked or 0, seq)

    def stalled(self, now: float, stall_ms: float) -> bool:
        """Sent past the ack, and nothing new went out for ``stall_ms``."""
        return (
            self.acked is not None
            and self.sent > self.acked
            and now - self.progress_at > stall_ms
        )

    def due(self, length: int, now: float, window: int, rewind: bool) -> range:
        """Sequence numbers to send now, recorded as sent: at most ``window``
        past the ack, and nothing already sent unless ``rewind`` (a stall
        was detected) restarts from the ack."""
        acked = self.acked
        if acked is None:
            return range(0)
        if rewind:
            self.sent = acked
        sent = max(self.sent, acked)
        limit = min(length, acked + window)
        if limit > sent:
            self.sent = limit
            self.progress_at = now
        return range(sent + 1, limit + 1)


class Streams:
    """Both WAN stream endpoints of a WanKeeper server."""

    # ------------------------------------------------------ hub discovery

    def _probe_hub(self) -> None:
        """Ask every server of the hub site who the level-2 leader is."""
        hello = WanHello(self.site, self.client_addr, self.peer.is_leader)
        for addr in self.wan.site_server_addrs[self.current_l2_site]:
            self.net.send(self.client_addr, addr, hello)

    def _on_wan_hello(self, src: NodeAddress, msg: WanHello) -> None:
        if msg.is_site_leader:
            self._site_leaders[msg.site] = msg.sender
        self.net.send(self.client_addr, msg.sender, WanWelcome(self.client_addr))

    def _on_wan_welcome(self, src: NodeAddress, msg: WanWelcome) -> None:
        if src.site != self.current_l2_site:
            return  # late welcome from a demoted hub
        self._l2_addr = msg.l2_addr
        self._failover.last_hub_contact = self.env.now

    # ------------------------------------------------------------- acks

    def _ack_site(self, site: str) -> None:
        """Hub leader: tell ``site`` how much of its stream we absorbed."""
        leader = self._site_leaders.get(site)
        if leader is not None:
            self.net.send(
                self.client_addr,
                leader,
                WanAck(site, self._absorbed_from_site[site]),
            )

    def _ack_hub(self) -> None:
        """Site leader: tell the hub how much of our relay we applied."""
        if self._l2_addr is not None:
            self.net.send(
                self.client_addr,
                self._l2_addr,
                WanAck(self.site, self._applied_relay_count),
            )

    # ---------------------------------------------------------- senders

    def _relay_stream_to(self, site: str) -> List[WanTxn]:
        """``site``'s relay stream: every commit it did not serialize."""
        return [txn for txn in self._wan_history if txn.serialized_at != site]

    def _hub_relay_streams(self) -> Dict[str, List[WanTxn]]:
        """Hub leader: each site's relay stream, built on first use."""
        streams = self._relay_streams
        if streams is None:
            streams = self._relay_streams = {
                site: self._relay_stream_to(site) for site in self._relay_sites
            }
        return streams

    def _flush_relays(self, rewind: bool = False) -> None:
        """Hub leader: push relay streams to each site (go-back-N)."""
        now = self.env.now
        for site, stream in self._hub_relay_streams().items():
            sender = self._relays.get(site)
            leader = self._site_leaders.get(site)
            if sender is None or leader is None:
                continue
            for seq in sender.due(len(stream), now, RELAY_WINDOW, rewind):
                self.net.send(
                    self.client_addr,
                    leader,
                    RemoteApply(seq, stream[seq - 1]),
                )

    def _flush_replicates(self, rewind: bool = False) -> None:
        """Site leader: push locally-committed txns to the hub (go-back-N)."""
        if self._l2_addr is None:
            return
        stream = self._replicate_stream
        for seq in self._replicate.due(
            len(stream), self.env.now, RELAY_WINDOW, rewind
        ):
            self.net.send(
                self.client_addr,
                self._l2_addr,
                SiteReplicate(self.site, self.client_addr, seq, stream[seq - 1]),
            )

    # -------------------------------------------------------- receivers

    def _on_site_replicate(self, src: NodeAddress, msg: SiteReplicate) -> None:
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
            self._ack_hub()
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
        if not self.peer.is_leader:
            return
        if self.is_hub_site:
            sender = self._relays.get(msg.site)
            if sender is not None:
                sender.ack(msg.seq)
        else:
            self._replicate.ack(msg.seq)
            self._failover.last_hub_contact = self.env.now

    # ------------------------------------------------------- heartbeats

    def _on_wan_heartbeat(self, src: NodeAddress, msg: WanHeartbeat) -> None:
        site = msg.site
        self._site_leaders[site] = msg.sender
        inventory_needed = self._failover.inventory_needed
        if site != self.site:
            streams = self._hub_relay_streams()
            if site not in streams:
                # A site added after this server started (paper §II-D: a
                # new level-1 site joins with a fresh start and receives
                # the full filtered history).
                self._relay_sites.append(site)
                streams[site] = self._relay_stream_to(site)
            if site not in self._relays:
                self._relays[site] = GoBackN()
            self._relays[site].ack(msg.applied_relay_seq)
        if msg.owned_tokens is not None and site in inventory_needed:
            inventory_needed.discard(site)
            self._propose(TokenSyncOp(site, msg.owned_tokens))
        self.net.send(
            self.client_addr,
            msg.sender,
            WanHeartbeatAck(
                l2_addr=self.client_addr,
                absorbed=self._absorbed_from_site.get(site, 0),
                need_inventory=site in inventory_needed,
            ),
        )

    def _on_wan_heartbeat_ack(self, src: NodeAddress, msg: WanHeartbeatAck) -> None:
        if self.is_hub_site or not self.peer.is_leader:
            return
        if src.site != self.current_l2_site:
            return  # stale ack from a demoted hub
        self._l2_addr = msg.l2_addr
        self._failover.last_hub_contact = self.env.now
        self._failover.send_inventory_next = msg.need_inventory
        self._replicate.ack(msg.absorbed)
