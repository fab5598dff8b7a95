"""Zab transaction identifiers.

A zxid is a pair ``(epoch, counter)``; ZooKeeper packs it into one 64-bit
integer with the epoch in the high 32 bits. Total order on zxids is the
total order on commits within one ensemble.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Zxid"]


class Zxid(NamedTuple):
    """A Zab transaction id: ``(epoch, counter)``, totally ordered.

    A tuple subclass: zxids are compared on every proposal, ack, commit and
    log append and key the leader's ack table, so order, equality and hash
    are the tuple's own, at C speed. The hash is ``hash((epoch, counter))``
    — what the frozen dataclass and the hand-written class before this one
    produced — so dict and set iteration orders are unchanged.
    """

    epoch: int = 0
    counter: int = 0

    def next(self) -> "Zxid":
        """The next zxid in the same epoch."""
        return Zxid(self.epoch, self.counter + 1)

    def new_epoch(self, epoch: int) -> "Zxid":
        """The first zxid of a later epoch."""
        if epoch <= self.epoch:
            raise ValueError(f"epoch {epoch} not newer than {self.epoch}")
        return Zxid(epoch, 0)

    def packed(self) -> int:
        """ZooKeeper-style 64-bit packed representation."""
        return (self.epoch << 32) | (self.counter & 0xFFFFFFFF)

    @classmethod
    def unpack(cls, packed: int) -> "Zxid":
        return cls(packed >> 32, packed & 0xFFFFFFFF)

    def __str__(self) -> str:
        return f"{self.epoch}:{self.counter}"


#: The zxid before any transaction (a NamedTuple body would take an
#: annotated ``ZERO`` for a third field, so it is attached here).
Zxid.ZERO = Zxid(0, 0)
