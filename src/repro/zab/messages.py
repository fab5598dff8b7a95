"""Zab protocol messages.

The network layer delivers them opaquely. Names follow the ZooKeeper
implementation where one exists.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, List, Optional

from repro.net.message import record
from repro.net.topology import NodeAddress
from repro.zab.log import LogEntry
from repro.zab.zxid import Zxid

__all__ = [
    "Ack",
    "AckEpoch",
    "AckNewLeader",
    "Commit",
    "Diff",
    "FollowerInfo",
    "Inform",
    "LeaderInfo",
    "NewLeader",
    "Ping",
    "Pong",
    "Propose",
    "Snap",
    "SubmitRequest",
    "Trunc",
    "UpToDate",
    "Vote",
    "VoteNotification",
]


# -- election ---------------------------------------------------------------


@record
class Vote:
    """A candidate preference: compare by (last_zxid, node id)."""

    node: NodeAddress
    last_zxid: Zxid

    def beats(self, other: "Vote") -> bool:
        return (self.last_zxid, self.node) > (other.last_zxid, other.node)


@record
class VoteNotification:
    """Election gossip: the sender's current vote in its current round."""

    sender: NodeAddress
    vote: Vote
    round: int
    sender_state: str  # PeerState value of the sender


# -- discovery --------------------------------------------------------------


@record
class FollowerInfo:
    """Follower -> prospective leader: my accepted epoch and log tail."""

    sender: NodeAddress
    accepted_epoch: int
    last_zxid: Zxid


@record
class LeaderInfo:
    """Leader -> follower: the new epoch (a.k.a. NEWEPOCH)."""

    sender: NodeAddress
    new_epoch: int


@record
class AckEpoch:
    """Follower -> leader: epoch accepted; carries history position."""

    sender: NodeAddress
    current_epoch: int
    last_zxid: Zxid


# -- synchronization ----------------------------------------------------------


@record
class Diff:
    """Leader -> follower: entries the follower is missing."""

    sender: NodeAddress
    entries: List[LogEntry]


@record
class Trunc:
    """Leader -> follower: drop log entries after ``truncate_to``."""

    sender: NodeAddress
    truncate_to: Zxid
    entries: List[LogEntry] = field(default_factory=list)


@record
class Snap:
    """Leader -> follower: the leader's state at ``zxid``, then the log
    ``entries`` above it.

    ``state`` is a copy made for this one learner (the state machine's
    ``snapshot()``); the learner takes it as its own.
    """

    sender: NodeAddress
    state: Any
    zxid: Zxid
    entries: List[LogEntry]


@record
class NewLeader:
    """Leader -> follower: end of sync for the new epoch."""

    sender: NodeAddress
    epoch: int


@record
class AckNewLeader:
    sender: NodeAddress
    epoch: int


@record
class UpToDate:
    """Leader -> follower: the new epoch now serves traffic.

    ``committed_to`` is the leader's commit point at activation; entries the
    learner holds beyond it are still in flight and must not be applied yet.
    """

    sender: NodeAddress
    epoch: int
    committed_to: Zxid = Zxid.ZERO


# -- broadcast ---------------------------------------------------------------


@record
class SubmitRequest:
    """Any server -> leader: please broadcast this transaction."""

    sender: NodeAddress
    txn: Any


@record
class Propose:
    """Leader -> follower: vote on this transaction."""

    sender: NodeAddress
    zxid: Zxid
    txn: Any


@record
class Ack:
    sender: NodeAddress
    zxid: Zxid


@record
class Commit:
    sender: NodeAddress
    zxid: Zxid


@record
class Inform:
    """Leader -> observer: a committed transaction (observers skip voting)."""

    sender: NodeAddress
    zxid: Zxid
    txn: Any


# -- liveness ---------------------------------------------------------------


@record
class Ping:
    """Leader -> members: liveness probe.

    The leader piggybacks its last committed zxid so lagging followers
    can detect gaps (they resync via FollowerInfo if needed).
    """

    sender: NodeAddress
    epoch: int
    last_committed: Optional[Zxid] = None


@record
class Pong:
    sender: NodeAddress
    epoch: int
