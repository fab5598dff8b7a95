"""Observability helpers: message accounting and token-migration analysis.

These exist for the paper's tuning story (§I: WanKeeper "provides knobs for
tuning/improving performance") — to tune the migration threshold or the
primary-site assignment you first need to *see* where tokens move and what
crosses the WAN.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.message import Envelope
from repro.net.transport import Network

__all__ = ["MessageStats", "migration_counts", "token_timeline"]


@dataclass
class MessageStats:
    """Counts every sent message by payload type and site pair.

    Attach before the workload: ``stats = MessageStats.attach(net)``.
    """

    by_type: Counter = field(default_factory=Counter)
    by_site_pair: Counter = field(default_factory=Counter)
    wan_messages: int = 0
    local_messages: int = 0
    #: The network being observed (for drop/duplicate accounting).
    net: Optional[Network] = None
    #: Network counters at attach time — drop/duplicate figures are deltas
    #: from here, so counts accrued before ``attach()`` (warm-up, an earlier
    #: MessageStats window) don't bleed into this window's report.
    _drops_at_attach: Counter = field(default_factory=Counter)
    _duplicated_at_attach: int = 0

    @classmethod
    def attach(cls, net: Network) -> "MessageStats":
        stats = cls(
            net=net,
            _drops_at_attach=Counter(net.drops_by_reason),
            _duplicated_at_attach=net.messages_duplicated,
        )
        net.tap(stats._observe)
        return stats

    def _observe(self, envelope: Envelope) -> None:
        self.by_type[type(envelope.body).__name__] += 1
        pair = (envelope.src.site, envelope.dst.site)
        self.by_site_pair[pair] += 1
        if envelope.src.site == envelope.dst.site:
            self.local_messages += 1
        else:
            self.wan_messages += 1

    @property
    def total(self) -> int:
        return self.wan_messages + self.local_messages

    def wan_fraction(self) -> float:
        """Fraction of all messages that crossed the WAN."""
        return self.wan_messages / self.total if self.total else 0.0

    def top_types(self, count: int = 10) -> List[Tuple[str, int]]:
        return self.by_type.most_common(count)

    def drops_by_reason(self) -> Dict[str, int]:
        """Messages dropped *since attach* by the attached network, per
        tagged reason (crash, partition, loss, inbox-closed)."""
        if self.net is None:
            return {}
        return {
            reason: count - self._drops_at_attach.get(reason, 0)
            for reason, count in self.net.drops_by_reason.items()
            if count - self._drops_at_attach.get(reason, 0) > 0
        }

    def messages_duplicated(self) -> int:
        """Messages duplicated by the network since attach."""
        if self.net is None:
            return 0
        return self.net.messages_duplicated - self._duplicated_at_attach

    def report(self) -> str:
        lines = [
            f"messages: {self.total} total, {self.wan_messages} WAN "
            f"({self.wan_fraction():.1%})",
        ]
        if self.net is not None:
            drops = self.drops_by_reason()
            dropped = sum(drops.values())
            breakdown = ", ".join(
                f"{reason}={count}" for reason, count in sorted(drops.items())
            )
            lines.append(
                f"dropped: {dropped}"
                + (f" ({breakdown})" if breakdown else "")
                + f", duplicated: {self.messages_duplicated()}"
            )
        lines.append("top message types:")
        for name, number in self.top_types():
            lines.append(f"  {name:24s} {number}")
        return "\n".join(lines)


def token_timeline(
    server, key: Optional[str] = None
) -> List[Tuple[float, str, Optional[str]]]:
    """Token movement events recorded at ``server`` (a WanKeeperServer).

    Each event is ``(sim time ms, key, owner)`` with owner None meaning
    the token returned to the hub. Filter to one ``key`` if given. Read
    from the ``token-grant`` / ``token-accept`` events the server emitted
    into its installed trace (``repro.trace.install_trace`` before
    ``start()``), so the ring's capacity bounds how far back it reaches.
    """
    trace = server._trace
    if trace is None:
        raise ValueError(
            f"{server.name} has no trace: install_trace(deployment) "
            "before start() to record token movements"
        )
    timeline: List[Tuple[float, str, Optional[str]]] = []
    for _seq, t, cat, kind, node, detail in trace.events():
        if cat != "wan" or node != server.name:
            continue
        if kind == "token-grant":
            timeline.append((t, detail["key"], detail["site"]))
        elif kind == "token-accept":
            timeline.extend((t, returned, None) for returned in detail["keys"])
    if key is not None:
        timeline = [event for event in timeline if event[1] == key]
    return timeline


def migration_counts(server) -> Dict[str, int]:
    """Per-key count of token movements observed at ``server``.

    High counts identify contended records — candidates for the paper's
    tuning knobs (pinning at the hub, primary-site reassignment).
    """
    return dict(Counter(key for _time, key, _owner in token_timeline(server)))
