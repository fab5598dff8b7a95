"""Ensemble membership, processing cost and protocol timing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List

from repro.net.topology import NodeAddress

__all__ = ["EnsembleConfig"]


@dataclass
class EnsembleConfig:
    """Static membership of one Zab ensemble.

    ``voters`` participate in elections and commit quorums; ``observers``
    are non-voting learners (the paper's "ZooKeeper with observers"
    baseline places one observer per remote region).
    """

    voters: List[NodeAddress]
    observers: List[NodeAddress] = field(default_factory=list)
    # Extra per-request processing cost at a server (CPU stand-in).
    processing_delay_ms: float = 0.02

    #: Protocol timing, in simulated milliseconds: one setting for every
    #: ensemble, read through the config by each peer and server.
    heartbeat_interval_ms: ClassVar[float] = 50.0
    election_timeout_ms: ClassVar[float] = 300.0

    def __post_init__(self) -> None:
        if not self.voters:
            raise ValueError("ensemble needs at least one voter")
        seen = set()
        for addr in list(self.voters) + list(self.observers):
            if addr in seen:
                raise ValueError(f"duplicate member: {addr}")
            seen.add(addr)
        overlap = set(self.voters) & set(self.observers)
        if overlap:
            raise ValueError(f"members cannot be both voter and observer: {overlap}")

    @property
    def quorum_size(self) -> int:
        return len(self.voters) // 2 + 1

    def is_quorum(self, acks: int) -> bool:
        return acks >= self.quorum_size

    def is_voter(self, addr: NodeAddress) -> bool:
        return addr in self.voters

    def is_observer(self, addr: NodeAddress) -> bool:
        return addr in self.observers

    @property
    def members(self) -> List[NodeAddress]:
        return list(self.voters) + list(self.observers)

    def peers_of(self, addr: NodeAddress) -> List[NodeAddress]:
        """All other members, from one member's point of view."""
        return [member for member in self.members if member != addr]
