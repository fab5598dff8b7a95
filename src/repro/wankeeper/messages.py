"""WAN-layer messages and replicated transaction wrappers.

Two kinds of definitions live here:

* **control messages** exchanged between level-1 site leaders and the
  level-2 broker over the WAN (submit, replicate, recall, heartbeat);
* **replicated payloads** committed inside site/hub ensembles: the
  :class:`WanTxn` wrapper around a client transaction (carrying where it
  was serialized and piggybacked token grants, per protocol Fig. 2) and the
  token marker ops that make token state recoverable from the log (§II-D
  fault tolerance).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.message import record
from repro.net.topology import NodeAddress
from repro.zk.ops import Txn

__all__ = [
    "HUB",
    "L2Promoted",
    "L2PromotionRequest",
    "L2PromotionVote",
    "RelayNoopOp",
    "RemoteApply",
    "SiteReplicate",
    "TokenAcceptOp",
    "TokenGrant",
    "TokenRecall",
    "TokenReleaseOp",
    "TokenReturn",
    "TokenSyncOp",
    "WanAck",
    "WanEpochOp",
    "WanHeartbeat",
    "WanHeartbeatAck",
    "WanHello",
    "WanSubmit",
    "WanTxn",
    "WanWelcome",
]


#: ``WanTxn.serialized_at`` value for hub-serialized transactions.
HUB = "l2"


# -- replicated payloads -------------------------------------------------------


@record
class TokenGrant:
    """Hub -> site token migration, piggybacked on a committed WanTxn."""

    key: str
    site: str


@record
class WanTxn:
    """A client transaction wrapped for WanKeeper replication.

    ``serialized_at`` is either a site name (local commit under a held
    token) or ``"l2"`` (hub serialization). ``grants`` are the token
    migrations decided when the hub serialized this txn — applying the
    commit applies the grant on every replica, which is what makes grants
    recoverable after leader failures.
    """

    txn: Txn
    serialized_at: str
    grants: Tuple[TokenGrant, ...] = ()

    @property
    def wan_id(self) -> Tuple[str, int]:
        return self.txn.key


@record
class TokenReleaseOp:
    """Marker committed in a *site* ensemble: this site gives up ``keys``.

    Committed locally before the TokenReturn control message is sent, so a
    new site leader never believes it still holds a returned token.
    """

    keys: Tuple[str, ...]


@record
class TokenAcceptOp:
    """Marker committed in the *hub* ensemble: returns from ``site`` landed.

    Once applied, the hub may serialize transactions on ``keys`` again.
    """

    keys: Tuple[str, ...]
    site: str


# -- WAN control messages -----------------------------------------------------


@record
class WanHello:
    """Site server -> hub-site servers: who is the level-2 leader?

    ``is_site_leader`` distinguishes the site's broker (whose address the
    hub records as the relay target) from followers probing only for the
    strong-read path.
    """

    site: str
    sender: NodeAddress
    is_site_leader: bool = True


@record
class WanWelcome:
    """Hub leader -> site leader: I'm the level-2 broker."""

    l2_addr: NodeAddress


@record
class WanSubmit:
    """Site -> hub: serialize this transaction (tokens missing at site)."""

    site: str
    sender: NodeAddress
    txn: Txn


@record
class SiteReplicate:
    """Site -> hub: a locally committed transaction, for global visibility.

    ``seq`` is the site's WAN replication sequence number (dedup + FIFO
    check); retried until the hub acks.
    """

    site: str
    sender: NodeAddress
    seq: int
    wan_txn: WanTxn


@record
class RemoteApply:
    """Hub -> site: a hub-ensemble commit to apply in the site ensemble.

    ``seq`` is the entry's position in the site's relay stream (dedup +
    FIFO check); retried until the site acks.
    """

    seq: int
    wan_txn: WanTxn


@record
class WanAck:
    """Apply-level ack for SiteReplicate / RemoteApply retry loops."""

    site: str
    seq: int


@record
class TokenRecall:
    """Hub -> site: terminate the lease on ``keys``; return them.

    ``grant_counts`` carries, per key, how many grants to this site the hub
    has committed. A recall can overtake the granting WanTxn on the relay
    stream (the recall is a direct message, the grant is replicated); the
    count lets the site tell "grant still in flight" apart from "already
    released" instead of wrongly re-acking a token it is about to receive.
    """

    keys: Tuple[str, ...]
    grant_counts: Optional[Tuple[int, ...]] = None


@record
class TokenReturn:
    """Site -> hub: ``keys`` released (after the local release marker).

    ``seq`` is the releasing site's replicate-stream length at the release
    commit — every local commit the site made while holding the keys sits
    at or below it. The hub must absorb the site's stream up to ``seq``
    before accepting the return: the return travels outside the go-back-N
    stream, so under loss it can overtake the very commits (e.g. the
    create of a returned key) the next hub-serialized write depends on.

    ``grant_counts`` carries, per key, how many grants to this site the
    site has applied — the grant being returned. A late or duplicated
    return that arrives after the hub granted the key back to the same
    site names an older grant, and the hub refuses it instead of taking
    home a token the site owns again.
    """

    site: str
    sender: NodeAddress
    keys: Tuple[str, ...]
    seq: int = 0
    grant_counts: Optional[Tuple[int, ...]] = None


@record
class WanHeartbeat:
    """Site leader -> hub leader: the WAN heartbeater (paper §III-B).

    ``applied_relay_seq`` reports the site's cumulative relay watermark so
    a newly elected hub leader can resume the relay stream from the right
    position. ``owned_tokens`` is the site's full token inventory, included
    when the hub requested it (a freshly promoted level-2 site rebuilding
    its location map). Cross-site ephemerals do not ride here: the owning
    server's hub-serialized session close removes them.
    """

    site: str
    sender: NodeAddress
    applied_relay_seq: int = 0
    owned_tokens: Optional[Tuple[str, ...]] = None


@record
class WanHeartbeatAck:
    """Hub leader -> site leader: ack + the hub's absorbed-replicate count
    (lets a newly elected site leader resume its replicate stream).
    ``need_inventory`` asks the site to include its token inventory in the
    next heartbeat (level-2 promotion recovery)."""

    l2_addr: NodeAddress
    absorbed: int = 0
    need_inventory: bool = False


# -- level-2 failover (paper §II-D: "flexible level-2 site") -------------------


@record
class L2PromotionRequest:
    """Successor-site leader -> all site servers: the level-2 site looks
    dead; vote for me as the new level-2 for ``epoch``."""

    candidate_site: str
    sender: NodeAddress
    epoch: int


@record
class L2PromotionVote:
    voter_site: str
    sender: NodeAddress
    epoch: int
    agree: bool


@record
class L2Promoted:
    """New hub leader -> all servers everywhere: epoch/new hub announcement.

    Rebroadcast periodically so a partitioned-away old hub site demotes
    itself when it reconnects."""

    new_l2_site: str
    epoch: int
    sender: NodeAddress


# -- replicated markers supporting failover ------------------------------------


@record
class WanEpochOp:
    """Marker committed in a *site* ensemble: adopt a new WAN epoch with
    ``l2_site`` as the hub. Applying it resets the site's relay watermark
    (the new hub replays its filtered history; duplicates become
    RelayNoopOp markers)."""

    epoch: int
    l2_site: str


@record
class RelayNoopOp:
    """Marker committed in a *site* ensemble: a replayed relay entry the
    site had already applied. Advances the derived relay watermark without
    touching the tree."""

    wan_id: Tuple[str, int]


@record
class TokenSyncOp:
    """Marker committed in the *hub* ensemble after promotion: ``site``'s
    token holdings are exactly ``keys`` (inventory reconciliation)."""

    site: str
    keys: Tuple[str, ...]
