"""The peer base every broadcast substrate builds on.

:class:`Peer` owns what the contract in :mod:`repro.substrate` asks of
every backend and what no backend does its own way: the membership check
and identity, the inbox, the hooks the service layer sets, the
observability attachment points, the ``start`` / ``crash`` / ``restart``
skeleton, the guarded send, the state change, the forwarded-submit
duplicate table and the counters every backend keeps. A backend
(:class:`repro.zab.peer.ZabPeer`, :class:`repro.wpaxos.peer.WPaxosPeer`)
adds its protocol: the message handlers behind ``_on_envelope``, the
ticker's ``_on_tick``, ``submit`` / ``forward_submit`` and the one
``_resume(restarted)`` step that puts it into service.

This module imports nothing from a backend, so a backend imports it
without importing another backend.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Tuple

from repro.net.topology import NodeAddress
from repro.net.transport import Network
from repro.sim.kernel import Environment, Ticker

if TYPE_CHECKING:  # the config lives in the zab package, which imports us
    from repro.zab.config import EnsembleConfig

__all__ = [
    "DIFF_WINDOW",
    "Peer",
    "PeerState",
    "SUBMIT_DEDUP_LIMIT",
    "submit_dedup_id",
]


class PeerState(str, enum.Enum):
    LOOKING = "looking"
    FOLLOWING = "following"
    LEADING = "leading"
    OBSERVING = "observing"
    DOWN = "down"


#: How many distinct forwarded-transaction ids a peer remembers for
#: duplicate suppression (bounds memory; far above any in-flight window).
SUBMIT_DEDUP_LIMIT = 4096

#: How many applied entries a peer keeps below its apply point, so that a
#: lagging replica still gets entries rather than a state snapshot
#: (ZooKeeper's committedLog keeps 500). Compaction drops them in chunks,
#: once twice this many are held. The largest lag a learner syncs from in
#: the tier-1 fault suites is 220 entries (docs/PERFORMANCE.md, "Bounded
#: replica state"). Backends read it at run time, so a test may patch it.
DIFF_WINDOW = 1024


def submit_dedup_id(payload: Any) -> Optional[Tuple[Any, ...]]:
    """Stable identity of a forwarded transaction, for duplicate suppression.

    Client transactions are identified by ``(session_id, cxid)`` — the same
    tuple whether they travel bare (:class:`~repro.zk.ops.Txn`, its
    ``key``) or wrapped (``WanTxn.wan_id``, the wrapped txn's ``key``), so
    a retransmitted forward is recognized no matter how the leader first
    saw the transaction, and this table shares the tuple every replica's
    tables hold. Payloads without an identity (marker ops) return None and
    are never deduplicated.
    """
    wan_id = getattr(payload, "wan_id", None)
    if wan_id is not None:
        return tuple(wan_id)
    return getattr(payload, "key", None)


class Peer:
    """One member of a substrate ensemble: voter or observer."""

    #: The category of this backend's trace events (``repro.trace``).
    layer = ""

    def __init__(
        self,
        env: Environment,
        net: Network,
        addr: NodeAddress,
        config: "EnsembleConfig",
        name: str = "",
    ):
        if not (config.is_voter(addr) or config.is_observer(addr)):
            raise ValueError(f"{addr} is not a member of the ensemble")
        self.env = env
        self.net = net
        self.addr = addr
        self.config = config
        self.name = name or str(addr)
        self.is_observer = config.is_observer(addr)
        # The backend's _on_envelope takes each delivered (src, dst, body).
        self.inbox = net.register(addr)
        self.inbox.consume(self._on_envelope)

        self.state = PeerState.DOWN
        # A regime number that never decreases while the peer is up.
        self.current_epoch = 0

        # Hooks, set by the service layer. A replica below the window a
        # sender keeps takes the sender's snapshot_state() -- a copy of its
        # state machine's state -- through install_state(state). If set,
        # forwarded submits reach on_submit instead of being proposed
        # directly (WanKeeper inserts its token check there).
        self.on_commit: Optional[Callable[[Any, Any], None]] = None
        self.snapshot_state: Optional[Callable[[], Any]] = None
        self.install_state: Optional[Callable[[Any], None]] = None
        self.on_submit: Optional[Callable[[Any], None]] = None
        self.on_state_change: Optional[Callable[["Peer"], None]] = None
        self.on_leader_activated: Optional[Callable[["Peer"], None]] = None

        # Recently taken-in submit ids (duplicate suppression for
        # retransmitted forwards under lossy links) with what the backend
        # notes per id, and the same ids oldest first for FIFO eviction.
        # A dict, not a set: under this churn a set's table grows to 4x
        # its members.
        self._recent_submits: Dict[Tuple[Any, ...], Any] = {}
        self._submit_order: Deque[Tuple[Any, ...]] = deque()

        # Metrics.
        self.commits_delivered = 0
        self.proposals_retransmitted = 0
        self.duplicate_submits_dropped = 0

        # Observability (repro.trace / repro.invariants); None keeps every
        # instrumentation point a single-branch no-op.
        self._trace = None
        self.sentinel = None

        self._alive = False
        self._ticker: Optional[Ticker] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def is_alive(self) -> bool:
        return self._alive

    def start(self) -> None:
        """Boot the peer: its first state and its ticker."""
        if self._alive:
            raise RuntimeError(f"{self.name} already started")
        self._alive = True
        self._resume(False)

    def crash(self) -> None:
        """Crash the peer: it goes DOWN, its inbox closes and its ticker
        stops. A backend that keeps volatile state drops it here."""
        if not self._alive:
            return
        self._alive = False
        self._set_state(PeerState.DOWN)
        self.net.crash(self.addr)
        self._ticker.stop()

    def restart(self) -> None:
        """Rejoin after a crash. Durable state and the state machine above
        survive, so delivery resumes after the applied point."""
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self.net.restart(self.addr)
        self._alive = True
        self._resume(True)

    def _resume(self, restarted: bool) -> None:
        """Enter service, live: set the first state, start the ticker."""
        raise NotImplementedError

    # -------------------------------------------------------------- plumbing

    def _send(self, dst: NodeAddress, body: Any) -> None:
        if not self._alive:
            return
        self.net.send(self.addr, dst, body)

    def _set_state(self, state: PeerState) -> None:
        if state == self.state:
            return
        self.state = state
        if self._trace is not None:
            self._trace.emit(self.env.now, self.layer, "state", self.name,
                             {"state": state.value,
                              "epoch": self.current_epoch})
        if self.on_state_change is not None:
            self.on_state_change(self)

    def _remember_submit(
        self, dedup_id: Optional[Tuple[Any, ...]], value: Any = None
    ) -> None:
        """Note a taken-in submit id with ``value``, evicting the oldest id
        past :data:`SUBMIT_DEDUP_LIMIT`; an id of None is never noted."""
        if dedup_id is None:
            return
        recent = self._recent_submits
        if dedup_id not in recent:
            order = self._submit_order
            order.append(dedup_id)
            if len(order) > SUBMIT_DEDUP_LIMIT:
                del recent[order.popleft()]
        recent[dedup_id] = value
