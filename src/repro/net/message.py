"""Message envelope carried by the simulated network, and the record policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Envelope", "record"]

#: Decorator for every wire message and value record in the repo: slots, a
#: plain-assignment ``__init__``, field-tuple ``==`` and ``hash``, and a
#: ``Name(field=...)`` repr. Not frozen on purpose: a frozen ``__init__``
#: is a chain of ``object.__setattr__`` calls, 4-5x slower per message
#: (docs/PERFORMANCE.md, "Protocol layer").
record = dataclass(slots=True, unsafe_hash=True)


class Envelope:
    """A message in flight.

    ``body`` is an arbitrary protocol message object; the network never
    inspects it. ``seq`` is a global send sequence number used for stable
    ordering and debugging.

    Not a :data:`record`: envelopes compare by identity and print short.
    """

    __slots__ = ("src", "dst", "body", "send_time", "deliver_time", "seq",
                 "size_bytes")

    def __init__(
        self,
        src: Any,
        dst: Any,
        body: Any,
        send_time: float,
        deliver_time: float = 0.0,
        seq: int = 0,
        size_bytes: int = 256,
    ):
        self.src = src
        self.dst = dst
        self.body = body
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.seq = seq
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Envelope #{self.seq} {self.src}->{self.dst} "
            f"{type(self.body).__name__} t={self.send_time:.3f}>"
        )
