"""Go-back-N sender state for one direction of a cross-site stream.

Both WAN streams (site -> hub replication, hub -> site relay) are sequences
derived from the committed log and pushed under a cumulative ack. The
sender never holds the sequence — it is re-created on restart and SNAP
sync — so callers pass its current length and send the numbers they get.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["GoBackN"]


class GoBackN:
    """What the receiver confirmed, how far we sent, when we last sent
    anything new; sequence numbers start at 1.

    ``acked is None`` means "new leader: send nothing until the receiver
    reports its watermark". A freshly promoted hub knows every site replays
    from zero and says so with ``acked=0``.
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
