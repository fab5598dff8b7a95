"""Token identity and token-state bookkeeping.

One token exists per *record* — for the coordination service, per znode
path — except that sequential znodes under one parent share a single *bulk*
token keyed by the parent (§III-B: sequence numbers depend on sibling
ordering, so their tokens cannot be split across sites).

Token state is **derived from committed transactions** so any new leader can
recover it (§II-D "fault tolerance"): grants ride inside the committed
transaction that triggered them; releases and returns are small marker
transactions in the site/hub ensembles. The classes here are pure state —
the broker logic in :mod:`repro.wankeeper.server` drives them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.zk.ops import (
    CheckVersionOp,
    CloseSessionOp,
    CreateOp,
    DeleteOp,
    MultiOp,
    SetDataOp,
    SyncOp,
)
from repro.zk.paths import parent_of

__all__ = ["HubTokenState", "SiteTokenState", "token_key", "token_keys"]

#: Sequential znodes are named ``<prefix><10-digit counter>``.
_SEQUENTIAL_SUFFIX = re.compile(r"\d{10}$")

#: Token location value meaning "held by the level-2 broker".
AT_HUB = None


def token_key(path: str) -> str:
    """The token protecting ``path``.

    Paths that look like sequential znodes (10-digit suffix) are protected
    by their parent's bulk token; every other path is its own token.
    """
    if path != "/" and _SEQUENTIAL_SUFFIX.search(path.rpartition("/")[2]):
        return parent_of(path)
    return path


def token_keys(op) -> Set[str]:
    """All tokens a write op needs before it can commit locally.

    A create/delete does *not* take the parent's token (only the parent's
    cversion changes, which is site-local metadata) — except sequential
    creates, which take the parent's bulk token because the sequence counter
    must be globally consistent. A plain create of a path that looks
    sequential takes that path's bulk token, as a delete or set of it does.
    """
    if isinstance(op, CreateOp) and op.sequential:
        return {parent_of(op.path)}
    if isinstance(op, (CreateOp, DeleteOp, SetDataOp, CheckVersionOp)):
        return {token_key(op.path)}
    if isinstance(op, MultiOp):
        keys: Set[str] = set()
        for sub in op.ops:
            keys |= token_keys(sub)
        return keys
    if isinstance(op, SyncOp):
        return set()
    if isinstance(op, CloseSessionOp):
        # Resolved by the broker against its tree (the ephemeral paths are
        # not known syntactically); treated as needing hub serialization.
        return set()
    raise TypeError(f"not a write op: {op!r}")


@dataclass
class SiteTokenState:
    """Token state at one level-1 site.

    ``owned`` is replicated state (recovered from the site ensemble's log);
    ``outgoing`` and ``inflight`` are leader-volatile — after a site-leader
    failover, pending recalls are simply re-issued by the level-2 broker's
    retry loop.
    """

    site: str
    owned: Set[str] = field(default_factory=set)
    outgoing: Set[str] = field(default_factory=set)
    inflight: Dict[str, int] = field(default_factory=dict)

    def holds(self, key: str) -> bool:
        """Can this site admit a local write on ``key`` right now?"""
        return key in self.owned and key not in self.outgoing

    def holds_all(self, keys: Iterable[str]) -> bool:
        owned = self.owned
        outgoing = self.outgoing
        return all(key in owned and key not in outgoing for key in keys)

    def admit(self, keys: Iterable[str]) -> None:
        """Count an admitted-but-uncommitted local txn against its keys."""
        inflight = self.inflight
        for key in sorted(keys):
            inflight[key] = inflight.get(key, 0) + 1

    def retire(self, keys: Iterable[str]) -> Set[str]:
        """A local txn committed: release inflight counts.

        Returns keys that are now drained *and* marked outgoing — the
        caller must release them back to the hub.
        """
        ready: Set[str] = set()
        inflight = self.inflight
        outgoing = self.outgoing
        for key in sorted(keys):
            remaining = inflight.get(key, 0) - 1
            if remaining <= 0:
                inflight.pop(key, None)
                if key in outgoing:
                    ready.add(key)
            else:
                inflight[key] = remaining
        return ready

    def grant(self, key: str) -> None:
        """Replicated: the hub granted this site the token for ``key``."""
        self.owned.add(key)
        self.outgoing.discard(key)

    def release(self, key: str) -> None:
        """Replicated: this site released ``key`` back to the hub."""
        self.owned.discard(key)
        self.outgoing.discard(key)
        self.inflight.pop(key, None)

    def copy(self) -> "SiteTokenState":
        """The replicated half only: a learner or a restarted server has
        admitted no writes and owes no recall."""
        return SiteTokenState(self.site, owned=set(self.owned))

    def start_recall(self, key: str) -> bool:
        """Hub asked for ``key`` back. True if it can be released now
        (no inflight txns); otherwise it is marked outgoing and drained."""
        if key not in self.owned:
            return False
        if self.inflight.get(key, 0) > 0:
            self.outgoing.add(key)
            return False
        self.outgoing.add(key)
        return True


@dataclass
class HubTokenState:
    """Token-location map at the level-2 broker.

    Replicated across the hub site's ensemble: grants ride in committed
    txns; returns are committed as accept markers. ``location[key]`` is a
    site name, or absent/``None`` meaning the hub holds the token.
    """

    location: Dict[str, Optional[str]] = field(default_factory=dict)

    def where(self, key: str) -> Optional[str]:
        """Owning site for ``key``, or None if the hub holds it."""
        return self.location.get(key, AT_HUB)

    def at_hub(self, key: str) -> bool:
        return self.where(key) is AT_HUB

    def grant(self, key: str, site: str) -> None:
        self.location[key] = site

    def accept_return(self, key: str) -> None:
        self.location.pop(key, None)

    def copy(self) -> "HubTokenState":
        return HubTokenState(dict(self.location))

    def held_by(self, site: str) -> Set[str]:
        return {key for key, where in self.location.items() if where == site}
