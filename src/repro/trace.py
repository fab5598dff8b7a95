"""Structured event trace: a bounded ring buffer of simulation events.

Every layer of the stack (kernel, network, Zab, ZooKeeper servers,
WanKeeper brokers, the nemesis) carries an optional ``_trace`` reference.
When it is ``None`` — the default, and the only state the benchmarks ever
see — each instrumentation point costs exactly one attribute load and one
branch. When a :class:`TraceBuffer` is installed, events are appended to a
``deque(maxlen=capacity)``: O(1), no allocation beyond the event tuple, and
memory bounded regardless of run length.

Events are plain tuples ``(seq, t, cat, kind, node, detail)``:

* ``seq``    — monotonically increasing sequence number (global per buffer);
* ``t``      — simulated time in ms;
* ``cat``    — layer: ``kernel`` | ``net`` | ``zab`` | ``wpaxos`` |
  ``zk`` | ``wan`` | ``nemesis``;
* ``kind``   — event name within the layer (``apply``, ``token-grant``, …);
* ``node``   — the emitting component's name;
* ``detail`` — a small dict of event-specific fields (JSON-safe scalars,
  or values coerced with ``repr`` on export).

The JSONL export (``python -m repro trace``) writes one event per line so
two runs can be compared with :func:`first_divergence` (``python -m repro
diff-traces``): the first differing event is where two seeded histories
fork — turning "the digest changed" into "here is the divergent event."
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceBuffer",
    "TraceEvent",
    "first_divergence",
    "install_trace",
    "load_jsonl",
    "render_event",
]

TraceEvent = Tuple[int, float, str, str, str, Optional[Dict[str, Any]]]

#: Default ring capacity: large enough to hold the full causal neighborhood
#: of a failure, small enough to be irrelevant for memory.
DEFAULT_CAPACITY = 4096


class TraceBuffer:
    """Bounded ring buffer of structured simulation events."""

    __slots__ = ("capacity", "_events", "_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: "deque[TraceEvent]" = deque(maxlen=capacity)
        self._seq = 0

    def emit(
        self,
        t: float,
        cat: str,
        kind: str,
        node: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one event. Callers guard with ``if trace is not None``."""
        self._seq += 1
        self._events.append((self._seq, t, cat, kind, node, detail))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def total_emitted(self) -> int:
        """Events emitted over the buffer's lifetime (>= len once wrapped)."""
        return self._seq

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def tail(self, count: int) -> List[TraceEvent]:
        """The most recent ``count`` events, oldest first."""
        if count <= 0:
            return []
        events = self._events
        if count >= len(events):
            return list(events)
        return list(events)[-count:]

    def clear(self) -> None:
        self._events.clear()

    # -- export -------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All buffered events, one JSON object per line."""
        return "\n".join(_event_to_json(event) for event in self._events)

    def dump(self, path: str) -> int:
        """Write the buffer as JSONL to ``path``; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(_event_to_json(event))
                handle.write("\n")
        return len(self._events)

    def format_tail(self, count: int) -> str:
        """Human-readable rendering of the last ``count`` events."""
        lines = [render_event(event) for event in self.tail(count)]
        return "\n".join(lines)


def render_event(event: TraceEvent) -> str:
    seq, t, cat, kind, node, detail = event
    rendered = ""
    if detail:
        rendered = " " + " ".join(
            f"{key}={value!r}" for key, value in sorted(detail.items())
        )
    return f"  #{seq} t={t:.3f} [{cat}/{kind}] {node}{rendered}"


def _event_to_json(event: TraceEvent) -> str:
    seq, t, cat, kind, node, detail = event
    record = {"seq": seq, "t": t, "cat": cat, "kind": kind, "node": node}
    if detail:
        record["detail"] = detail
    # default=repr: NodeAddress, bytes etc. serialize as their repr —
    # deterministic, and good enough for divergence comparison. (A Zxid is
    # a tuple, so it would serialize as a two-element array; no trace
    # detail carries one today.)
    return json.dumps(record, sort_keys=True, default=repr)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a trace dumped by :meth:`TraceBuffer.dump`.

    A line that is not a JSON object raises ``ValueError`` naming the path
    and the line, for the caller to print.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: not JSON ({exc})") from None
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{number}: not a trace event: {line[:60]}")
            events.append(event)
    return events


def first_divergence(
    a: Iterable[Dict[str, Any]], b: Iterable[Dict[str, Any]]
) -> Optional[Tuple[int, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]]:
    """The first position where two traces differ.

    Returns ``(index, event_a, event_b)`` — either event is ``None`` when
    one trace is a strict prefix of the other — or ``None`` when the traces
    are identical. The ``seq`` field is ignored so a wrapped ring buffer
    (whose absolute numbering shifted) still compares by content.
    """
    list_a, list_b = list(a), list(b)
    for index in range(max(len(list_a), len(list_b))):
        event_a = list_a[index] if index < len(list_a) else None
        event_b = list_b[index] if index < len(list_b) else None
        if _strip_seq(event_a) != _strip_seq(event_b):
            return index, event_a, event_b
    return None


def _strip_seq(event: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    if event is None:
        return None
    return {key: value for key, value in event.items() if key != "seq"}


def install_trace(deployment, trace: Optional[TraceBuffer] = None) -> TraceBuffer:
    """Wire a trace buffer into every component of a deployment.

    Works for both :class:`~repro.zk.deployment.ZkDeployment` and
    :class:`~repro.wankeeper.deployment.WanKeeperDeployment` (anything with
    ``env``, ``net`` and ``servers``). Returns the installed buffer.
    """
    if trace is None:
        trace = TraceBuffer()
    deployment.env.trace = trace
    deployment.net.trace = trace
    for server in deployment.servers:
        server._trace = trace
        server.peer._trace = trace
    return trace
