"""The simulated network: registration, FIFO delivery, partitions, crashes.

Default delivery semantics mirror TCP as the paper assumes:

* **reliable** — a message between two live, connected nodes is always
  delivered;
* **FIFO per (src, dst) pair** — delivery times are forced monotone per
  ordered pair, so jitter can never reorder two messages on one connection;
* **connection-loss on partition/crash** — messages to a crashed node or
  across a partition are silently dropped (the sender's protocol timeouts
  are responsible for recovery, as with a broken TCP connection).

Real WANs are worse than that, so every link can additionally be *degraded*
with a :class:`LinkProfile`: independent per-message loss, duplication, and
a "gray failure" delay multiplier (the link is up but pathologically slow).
Partitions may also be **asymmetric** (one direction severed), which is the
classic gray-failure shape Jepsen-style evaluations probe. Degradation
never reorders messages on a connection — duplicated copies arrive after
the original and FIFO stays monotone per ordered pair — matching a flaky
TCP path where the kernel retransmits but the application-visible stream
stays ordered, while *lost* messages model connection resets whose
in-flight data vanished.

Every drop is tagged with a reason (``crash``, ``partition``, ``loss``,
``inbox-closed``) and counted in :attr:`Network.drops_by_reason`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.message import Envelope
from repro.net.topology import NodeAddress, Topology
from heapq import heappush

from repro.sim.kernel import Environment
from repro.sim.store import Store

__all__ = ["LinkProfile", "Network", "NodeDownError"]

#: What a consumer receives for every delivered message.
Message = Tuple[NodeAddress, NodeAddress, Any]


class NodeDownError(Exception):
    """Raised when interacting with a crashed node's endpoint."""


@dataclass(frozen=True)
class LinkProfile:
    """Fault characteristics of one directed site-to-site link.

    ``loss`` and ``duplicate`` are independent per-message probabilities;
    ``delay_factor`` multiplies the link's one-way latency (a gray failure:
    the link works, just pathologically slowly).
    """

    loss: float = 0.0
    duplicate: float = 0.0
    delay_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(
                f"duplicate must be a probability, got {self.duplicate}"
            )
        if self.delay_factor <= 0.0:
            raise ValueError(
                f"delay_factor must be positive, got {self.delay_factor}"
            )


class Network:
    """Routes messages between registered node inboxes with WAN delays.

    ``send`` has two paths and one whole-network switch between them. While
    no fault of any kind is installed and the topology is jitter-free, a
    message is a delay lookup and a heap push (the *fast* path: no RNG draw,
    no FIFO table). Otherwise every message takes the *tracked* path — crash
    and partition checks, the link profile's loss and duplication draws, one
    jitter draw per copy and the per-ordered-pair FIFO floor — as
    straight-line code in the same frame. There is no per-link switch: with
    jitter on no link is ever fast, and a tracked send costs what a fast one
    does plus its draw and its FIFO probe (docs/PERFORMANCE.md, "Transport").
    """

    __slots__ = (
        "env",
        "topology",
        "rng",
        "_inboxes",
        "_down",
        "_partitions",
        "_oneway_partitions",
        "_link_profiles",
        "_last_delivery",
        "_fast",
        "_fast_horizon",
        "_slow_floor",
        "_fast_ok_after",
        "_jitter_free",
        "_pair_delay",
        "_seq",
        "messages_sent",
        "messages_dropped",
        "messages_duplicated",
        "drops_by_reason",
        "bytes_sent",
        "_taps",
        "_deliver_cb",
        "trace",
    )

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        rng: Optional[random.Random] = None,
    ):
        self.env = env
        self.topology = topology
        self.rng = rng or random.Random(0)
        self._inboxes: Dict[NodeAddress, Store] = {}
        self._down: Set[NodeAddress] = set()
        self._partitions: Set[FrozenSet[str]] = set()
        self._oneway_partitions: Set[Tuple[str, str]] = set()
        # Directed (src site, dst site) -> degradation profile.
        self._link_profiles: Dict[Tuple[str, str], LinkProfile] = {}
        self._last_delivery: Dict[Tuple[NodeAddress, NodeAddress], float] = {}
        # The fast path tracks nothing per message (delays are per-pair
        # constants, so delivery times are monotone by construction); three
        # watermarks make the transitions between the paths safe:
        #  * _fast_horizon   — latest delivery time ever scheduled by the
        #    fast path (fast sends are not tracked in _last_delivery);
        #  * _slow_floor     — _fast_horizon frozen at the moment a fault
        #    appears; a shrinking link (delay_factor < 1) may not undercut
        #    untracked fast-path messages still in flight;
        #  * _fast_ok_after  — when faults clear, the fast path re-arms only
        #    once every delivery tracked under a fault is in the past.
        self._fast = True
        self._fast_horizon = 0.0
        self._slow_floor = 0.0
        self._fast_ok_after = 0.0
        # Hoisted per-send invariants: jitter_fraction is fixed at topology
        # construction, and _pair_delay (which includes same-site pairs) is
        # mutated in place by Topology.set_one_way, so holding the dict
        # itself stays in sync.
        self._jitter_free = topology.jitter_fraction == 0.0
        self._pair_delay = topology._pair_delay
        self._seq = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.drops_by_reason: Counter = Counter()
        self.bytes_sent = 0
        self._taps: List[Callable[[Envelope], None]] = []
        #: Optional structured trace buffer (repro.trace.TraceBuffer).
        #: Drops and fault transitions are traced; per-message sends are
        #: not (they are the hot path and the taps already observe them).
        self.trace = None
        # One bound method reused for every scheduled delivery.
        self._deliver_cb = self._deliver

    # -- endpoints ----------------------------------------------------------

    def register(self, addr: NodeAddress) -> Store:
        """Register ``addr`` and return its inbox store."""
        if addr in self._inboxes:
            raise ValueError(f"address already registered: {addr}")
        inbox = Store(self.env, name=str(addr))
        self._inboxes[addr] = inbox
        return inbox

    def register_alias(self, addr: NodeAddress, inbox: Store) -> None:
        """Map an extra address onto an already-registered inbox.

        The flyweight client layer gives every logical session its own
        address (servers key connect-dedup, watches, and expiry notices by
        client address) while thousands of sessions share one physical
        inbox store and one consumer callback. Routing, crash state, and
        FIFO bookkeeping treat an alias exactly like any other address.
        """
        if addr in self._inboxes:
            raise ValueError(f"address already registered: {addr}")
        self._inboxes[addr] = inbox

    def inbox(self, addr: NodeAddress) -> Store:
        return self._inboxes[addr]

    # -- failure injection ----------------------------------------------------

    def _refresh_fast_path(self) -> None:
        """Recompute the fast-path flag after any fault-state mutation."""
        clear = not (
            self._down
            or self._partitions
            or self._oneway_partitions
            or self._link_profiles
        )
        if clear:
            if not self._fast:
                self._fast_ok_after = max(
                    self._last_delivery.values(), default=0.0
                )
                self._fast = True
        elif self._fast:
            self._slow_floor = self._fast_horizon
            self._fast = False

    def crash(self, addr: NodeAddress) -> None:
        """Crash a node: close its inbox and drop in-flight messages to it."""
        if addr not in self._inboxes:
            raise ValueError(f"unknown address: {addr}")
        self._down.add(addr)
        self._inboxes[addr].close()
        self._trace_fault("crash", str(addr))
        self._refresh_fast_path()

    def restart(self, addr: NodeAddress) -> None:
        """Restart a crashed node with an empty inbox."""
        if addr not in self._down:
            raise ValueError(f"node not down: {addr}")
        self._down.discard(addr)
        self._inboxes[addr].reopen()
        self._trace_fault("restart", str(addr))
        self._refresh_fast_path()

    def is_down(self, addr: NodeAddress) -> bool:
        return addr in self._down

    def _check_sites(self, *sites: str) -> None:
        """Installing a fault on a site the topology does not have would
        match no message and still take the whole network off the fast
        path; the lenient heal*/restore* calls need no such check."""
        known = self.topology.sites
        for site in sites:
            if site not in known:
                raise ValueError(
                    f"unknown site {site!r} (known sites: {', '.join(known)})"
                )

    def partition(self, site_a: str, site_b: str) -> None:
        """Sever connectivity between two sites (both directions)."""
        if site_a == site_b:
            raise ValueError("cannot partition a site from itself")
        self._check_sites(site_a, site_b)
        self._partitions.add(frozenset({site_a, site_b}))
        self._trace_fault("partition", f"{site_a}~{site_b}")
        self._refresh_fast_path()

    def partition_one_way(self, src_site: str, dst_site: str) -> None:
        """Sever only the ``src -> dst`` direction (asymmetric partition).

        The reverse direction keeps working — the gray-failure shape where
        one end believes the link is healthy.
        """
        if src_site == dst_site:
            raise ValueError("cannot partition a site from itself")
        self._check_sites(src_site, dst_site)
        self._oneway_partitions.add((src_site, dst_site))
        self._trace_fault("oneway-partition", f"{src_site}->{dst_site}")
        self._refresh_fast_path()

    def heal(self, site_a: str, site_b: str) -> None:
        """Restore connectivity between two sites (both directions)."""
        self._partitions.discard(frozenset({site_a, site_b}))
        self._oneway_partitions.discard((site_a, site_b))
        self._oneway_partitions.discard((site_b, site_a))
        self._trace_fault("heal", f"{site_a}~{site_b}")
        self._refresh_fast_path()

    def heal_one_way(self, src_site: str, dst_site: str) -> None:
        self._oneway_partitions.discard((src_site, dst_site))
        self._refresh_fast_path()

    def heal_all(self) -> None:
        self._partitions.clear()
        self._oneway_partitions.clear()
        self._refresh_fast_path()

    def partitioned(self, site_a: str, site_b: str) -> bool:
        if site_a == site_b:
            return False
        return frozenset({site_a, site_b}) in self._partitions

    def partitioned_one_way(self, src_site: str, dst_site: str) -> bool:
        """Is the directed path ``src -> dst`` severed (either kind)?"""
        if self.partitioned(src_site, dst_site):
            return True
        return (src_site, dst_site) in self._oneway_partitions

    # -- link degradation -----------------------------------------------------

    def degrade(
        self,
        site_a: str,
        site_b: str,
        profile: LinkProfile,
        symmetric: bool = True,
    ) -> None:
        """Degrade the link between two sites with ``profile``.

        With ``symmetric=False`` only the ``site_a -> site_b`` direction is
        degraded (asymmetric gray failure).
        """
        self._check_sites(site_a, site_b)
        self._link_profiles[(site_a, site_b)] = profile
        if symmetric:
            self._link_profiles[(site_b, site_a)] = profile
        self._trace_fault("degrade", f"{site_a}~{site_b}")
        self._refresh_fast_path()

    def restore(self, site_a: str, site_b: str) -> None:
        """Remove any degradation between two sites (both directions)."""
        self._link_profiles.pop((site_a, site_b), None)
        self._link_profiles.pop((site_b, site_a), None)
        self._trace_fault("restore", f"{site_a}~{site_b}")
        self._refresh_fast_path()

    def restore_all(self) -> None:
        self._link_profiles.clear()
        self._refresh_fast_path()

    def link_profile(self, src_site: str, dst_site: str) -> Optional[LinkProfile]:
        """The active degradation on the directed ``src -> dst`` link."""
        return self._link_profiles.get((src_site, dst_site))

    # -- observation ----------------------------------------------------------

    def tap(self, callback: Callable[[Envelope], None]) -> None:
        """Register an observer invoked with an :class:`Envelope` for every
        *sent* message. Only taps get one: a message travels as a bare
        ``(src, dst, body)`` tuple, and a tap that rewrites ``body``
        changes what is delivered."""
        self._taps.append(callback)

    def _drop(self, reason: str, msg: Message) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1
        trace = self.trace
        if trace is not None:
            src, dst, body = msg
            detail = {"reason": reason, "src": str(src), "dst": str(dst),
                      "type": type(body).__name__}
            trace.emit(self.env.now, "net", "drop", "net", detail)

    def _trace_fault(self, kind: str, target: str) -> None:
        trace = self.trace
        if trace is not None:
            trace.emit(self.env.now, "net", kind, "net", {"target": target})

    # -- sending ----------------------------------------------------------

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
        envelope = None
        if self._taps:
            envelope = Envelope(src, dst, body, env.now, 0.0, self._seq,
                                size_bytes)
            for tap in self._taps:
                tap(envelope)
            body = envelope.body
        msg = (src, dst, body)

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
            if envelope is not None:
                envelope.deliver_time = deliver_at
            if deliver_at > self._fast_horizon:
                self._fast_horizon = deliver_at
            env._seq += 1
            if deliver_at == env.now:
                # Zero-latency pair (same-site loopback): same-instant
                # bucket keeps the kernel's no-heap-entries-at-now
                # invariant intact.
                env._normal_now.append((self._deliver_cb, (inbox, msg)))
            else:
                heappush(
                    env._queue,
                    (deliver_at, env._seq, (self._deliver_cb, (inbox, msg))),
                )
            return

        # Tracked path: a fault is installed somewhere or the topology
        # jitters, so every message of the run comes through here — hence
        # straight-line, no Python call per message. The order of the
        # checks, the RNG draws and the float operations is the contract:
        # tests/reference_transport.py is the specification.
        down = self._down
        if down and (src in down or dst in down):
            self._drop("crash", msg)
            return
        pair = (src.site, dst.site)
        if (self._partitions or self._oneway_partitions) and (
            frozenset(pair) in self._partitions
            or pair in self._oneway_partitions
        ):
            self._drop("partition", msg)
            return

        draw = self.rng.random
        profile = self._link_profiles.get(pair)
        factor = 1.0
        copies = 1
        if profile is not None:
            if profile.loss > 0.0 and draw() < profile.loss:
                self._drop("loss", msg)
                return
            if profile.duplicate > 0.0 and draw() < profile.duplicate:
                copies = 2
                self.messages_duplicated += 1
            factor = profile.delay_factor
        try:
            delay = self._pair_delay[pair] * factor
        except KeyError:
            delay = self.topology.one_way(src, dst) * factor  # raises ValueError
        jitter = self.topology.jitter_fraction
        now = env.now
        key = (src, dst)
        last_delivery = self._last_delivery
        entry = (self._deliver_cb, (inbox, msg))
        while copies:
            copies -= 1
            # One jitter draw per copy; rng.uniform(0.0, jitter) is
            # jitter * rng.random() bit for bit.
            if jitter > 0:
                deliver_at = now + delay * (1.0 + jitter * draw())
            else:
                deliver_at = now + delay
            # FIFO per ordered pair: never deliver before the previous
            # message (or copy) on this connection.
            floor = last_delivery.get(key, 0.0)
            if floor > deliver_at:
                deliver_at = floor
            if factor < 1.0 and self._slow_floor > deliver_at:
                # A shrinking link may not undercut fast-path messages that
                # were in flight (untracked) when it was degraded.
                deliver_at = self._slow_floor
            last_delivery[key] = deliver_at
            if envelope is not None:
                envelope.deliver_time = deliver_at
            env._seq += 1
            # The kernel instant is the delay added back onto the clock —
            # what env.call_in(deliver_at - now) computes — which can sit
            # one ULP off deliver_at when now is small beside the delay.
            when = now + (deliver_at - now)
            if when == now:
                env._normal_now.append(entry)
            else:
                heappush(env._queue, (when, env._seq, entry))

    def _deliver(self, item: Tuple[Store, Message]) -> None:
        # Re-check liveness at delivery time: a crash or partition that
        # happened while the message was in flight kills it. The inbox was
        # resolved at send time (inboxes persist across crash/restart); only
        # its state is re-checked here.
        inbox, msg = item
        dst = msg[1]
        if self._down and dst in self._down:
            self._drop("crash", msg)
            return
        if (self._partitions or self._oneway_partitions) and (
            self.partitioned_one_way(msg[0].site, dst.site)
        ):
            self._drop("partition", msg)
            return
        if inbox._closed:
            self._drop("inbox-closed", msg)
            return
        # Inlined Store.put for the consumer-mode inbox (every protocol
        # endpoint registers a consumer); the closed check above already
        # covers put()'s guard.
        if inbox._consumer is None:
            inbox.put(msg)
        elif inbox._consumer_busy:
            inbox._items.append(msg)
        else:
            inbox._consumer_busy = True
            env = self.env
            env._seq += 1
            normal = env._normal_now
            if normal:
                normal.append((inbox._run_consumer, msg))
                return
            # run() dispatches this entry only once the urgent lane is
            # drained, so with the normal lane empty too the entry just
            # counted would be the very next one it pops: run it here
            # (Store._run_consumer, inlined). The order (when, lane, seq)
            # is unchanged.
            inbox._consumer(msg)
            if inbox._items:
                env._seq += 1
                normal.append((inbox._run_consumer, inbox._items.popleft()))
            else:
                inbox._consumer_busy = False
