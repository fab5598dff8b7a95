"""The pre-PR-19 tracked transport path — ``Network.send`` with its
``_schedule_delivery`` helper, and the hand-written ``NodeAddress`` —
verbatim (imports adjusted; the address class renamed
``ReferenceNodeAddress``, its repr still the product's), kept as a
differential oracle.

``repro.net`` has one ``send``: below the no-fault fast path it is
straight-line code, one Python frame per message. What that replaced
lives here, unchanged: ``send -> partitioned_one_way -> partitioned ->
_schedule_delivery -> Topology.one_way -> Random.uniform -> env.now ->
max -> env.call_in``, and an address class whose ``__hash__`` and
comparisons are Python frames.

It also keeps the delivery pair the product's ``_deliver`` replaced:
every message carried an ``Envelope`` to its inbox, and ``_deliver``
always queued ``Store._run_consumer`` as a second same-instant kernel
entry. The product calls an idle consumer directly when both same-instant
lanes are empty (that entry would have been the next one popped) and
builds an ``Envelope`` only for taps.

Slow, but the specification: ``tests/test_transport_tracked_path.py``
drives the same seeded fault schedules through :class:`ReferenceNetwork`
and the product and demands identical drops, delivery instants, RNG
state, counters, watermarks and arrival orders, and
``tests/test_transport_delivery.py`` holds the product's delivery to the
reference's handler order. Everything else (registration, fault
injection, watermarks) is inherited from the product ``Network`` —
nothing under ``src/`` may import this.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Optional, Tuple

from repro.net.message import Envelope
from repro.net.topology import NodeAddress
from repro.net.transport import LinkProfile, Network
from repro.sim.store import Store

__all__ = ["ReferenceNetwork", "ReferenceNodeAddress"]


# -- net/topology.py ------------------------------------------------------------


class ReferenceNodeAddress:
    """Address of a simulated node: ``site`` plus a name unique in the run.

    Immutable and hashable, like the frozen ordered dataclass it replaces —
    but with the hash computed once at construction: addresses key every
    inbox/FIFO/routing dict on the message hot path, so the per-lookup
    tuple-build of the generated ``__hash__`` was measurable.
    """

    __slots__ = ("site", "name", "_hash")

    def __init__(self, site: str, name: str):
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((site, name)))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"NodeAddress is immutable (tried to set {key!r})")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ReferenceNodeAddress:
            return NotImplemented
        return self.site == other.site and self.name == other.name

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not ReferenceNodeAddress:
            return NotImplemented
        return self.site != other.site or self.name != other.name

    def __lt__(self, other: "ReferenceNodeAddress") -> bool:
        return (self.site, self.name) < (other.site, other.name)

    def __le__(self, other: "ReferenceNodeAddress") -> bool:
        return (self.site, self.name) <= (other.site, other.name)

    def __gt__(self, other: "ReferenceNodeAddress") -> bool:
        return (self.site, self.name) > (other.site, other.name)

    def __ge__(self, other: "ReferenceNodeAddress") -> bool:
        return (self.site, self.name) >= (other.site, other.name)

    def __repr__(self) -> str:
        return f"NodeAddress(site={self.site!r}, name={self.name!r})"

    def __str__(self) -> str:
        return f"{self.site}/{self.name}"


# -- net/transport.py -----------------------------------------------------------


class ReferenceNetwork(Network):
    """``Network`` with the old ``send`` (both halves),
    ``_schedule_delivery``, ``_drop`` and ``_deliver``."""

    __slots__ = ()

    def send(self, src: NodeAddress, dst: NodeAddress, body: Any,
             size_bytes: int = 256) -> None:
        """Send ``body`` from ``src`` to ``dst``; returns immediately.

        Dropped (not raised) if either endpoint is down, the sites are
        partitioned in the sending direction, or the link's degradation
        profile loses the message — matching a broken TCP connection, where
        the sender discovers the failure only through its own timeouts.
        """
        try:
            inbox = self._inboxes[dst]
        except KeyError:
            raise ValueError(f"unknown destination: {dst}") from None
        env = self.env
        self._seq += 1
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        envelope = Envelope(src, dst, body, env.now, 0.0, self._seq, size_bytes)
        if self._taps:
            for tap in self._taps:
                tap(envelope)

        if (
            self._fast
            and self._jitter_free
            and env.now >= self._fast_ok_after
        ):
            # Fast path: no faults anywhere and no jitter. The one-way delay
            # is a per-pair constant, so delivery times are monotone per
            # ordered pair without any bookkeeping, and no RNG is consumed.
            try:
                delay = self._pair_delay[(src.site, dst.site)]
            except KeyError:
                delay = self.topology.one_way(src, dst)  # raises ValueError
            deliver_at = env.now + delay
            envelope.deliver_time = deliver_at
            if deliver_at > self._fast_horizon:
                self._fast_horizon = deliver_at
            env._seq += 1
            if deliver_at == env.now:
                # Zero-latency pair (same-site loopback): same-instant
                # bucket keeps the kernel's no-heap-entries-at-now
                # invariant intact.
                env._normal_now.append(
                    (self._deliver_cb, (inbox, envelope))
                )
            else:
                heappush(
                    env._queue,
                    (deliver_at, env._seq, (self._deliver_cb, (inbox, envelope))),
                )
            return

        if src in self._down or dst in self._down:
            self._drop("crash", envelope)
            return
        if self.partitioned_one_way(src.site, dst.site):
            self._drop("partition", envelope)
            return

        profile = self._link_profiles.get((src.site, dst.site))
        if profile is not None and profile.loss > 0.0:
            if self.rng.random() < profile.loss:
                self._drop("loss", envelope)
                return
        copies = 1
        if profile is not None and profile.duplicate > 0.0:
            if self.rng.random() < profile.duplicate:
                copies = 2
                self.messages_duplicated += 1
        for _copy in range(copies):
            self._schedule_delivery(inbox, envelope, profile)

    def _schedule_delivery(
        self, inbox: Store, envelope: Envelope, profile: Optional[LinkProfile]
    ) -> None:
        delay = self.topology.one_way(envelope.src, envelope.dst)
        if profile is not None:
            delay *= profile.delay_factor
        jitter = self.topology.jitter_fraction
        if jitter > 0:
            delay *= 1.0 + self.rng.uniform(0.0, jitter)

        # Enforce FIFO per ordered pair: never deliver before the previous
        # message (or copy) on this connection.
        key = (envelope.src, envelope.dst)
        deliver_at = max(self.env.now + delay, self._last_delivery.get(key, 0.0))
        if profile is not None and profile.delay_factor < 1.0:
            # A shrinking link may not undercut fast-path messages that were
            # in flight (untracked) when the degradation was installed.
            deliver_at = max(deliver_at, self._slow_floor)
        self._last_delivery[key] = deliver_at
        envelope.deliver_time = deliver_at
        self.env.call_in(
            deliver_at - self.env.now, self._deliver_cb, (inbox, envelope)
        )

    def _drop(self, reason: str, envelope: Optional[Envelope] = None) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1
        trace = self.trace
        if trace is not None:
            detail = {"reason": reason}
            if envelope is not None:
                detail["src"] = str(envelope.src)
                detail["dst"] = str(envelope.dst)
                detail["type"] = type(envelope.body).__name__
            trace.emit(self.env.now, "net", "drop", "net", detail)

    def _deliver(self, item: Tuple[Store, Envelope]) -> None:
        # Re-check liveness at delivery time: a crash or partition that
        # happened while the message was in flight kills it. The inbox was
        # resolved at send time (inboxes persist across crash/restart); only
        # its state is re-checked here.
        inbox, envelope = item
        if self._down and envelope.dst in self._down:
            self._drop("crash", envelope)
            return
        if (self._partitions or self._oneway_partitions) and (
            self.partitioned_one_way(envelope.src.site, envelope.dst.site)
        ):
            self._drop("partition", envelope)
            return
        if inbox._closed:
            self._drop("inbox-closed", envelope)
            return
        # The consumer gets the product's (src, dst, body) item, so one
        # consumer serves both networks.
        msg = (envelope.src, envelope.dst, envelope.body)
        # Inlined Store.put for the consumer-mode inbox (every protocol
        # endpoint registers a consumer); the closed check above already
        # covers put()'s guard.
        if inbox._consumer is not None:
            if inbox._consumer_busy:
                inbox._items.append(msg)
            else:
                inbox._consumer_busy = True
                env = self.env
                env._seq += 1
                env._normal_now.append((inbox._run_consumer, msg))
        else:
            inbox.put(msg)
