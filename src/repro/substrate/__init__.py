"""Pluggable broadcast-substrate registry.

The coordination service (:mod:`repro.zk.server`) is written against a
*broadcast substrate*: a per-server peer object that turns submitted
transactions into a committed, replicated stream. Any protocol that
honors the contract below can slot under the same ZK service, WanKeeper
layer, fleet driver, and experiment figures.

Peer contract. :class:`repro.substrate.peer.Peer` is the base both
backends build on (:class:`repro.zab.peer.ZabPeer`, the reference, and
:class:`repro.wpaxos.peer.WPaxosPeer`, the first alternate); it owns the
identity, the hooks, the lifecycle skeleton and the observability
attachment points below, and a backend adds its protocol:

* construction — ``factory(env, net, addr, config, name="")`` where
  ``config`` is an :class:`repro.zab.config.EnsembleConfig` (voters +
  observers + processing cost; the timing constants are read through it);
* lifecycle — ``start()``, ``crash()``, ``restart()`` (durable state
  survives a crash; volatile state does not);
* propose/commit ordering — ``submit(txn)`` on a server that reports
  ``is_leader``; ``forward_submit(txn)`` on one that does not;
  every committed txn is delivered exactly once per live replica through
  the ``on_commit(zxid, txn)`` hook, in an order that is total per
  ordering domain (the whole ensemble for zab; one object for wpaxos);
* leadership + epoch change — ``is_leader``, ``leader_addr``, ``state``
  (a :class:`repro.substrate.peer.PeerState`), and ``current_epoch`` (a
  non-decreasing regime number while the peer is up);
* observer/learner hooks — non-voting members listed in
  ``config.observers`` follow the commit stream and serve reads;
* snapshot-resync — one restart rule: a peer keeps the state machine's
  state across a restart and resumes after its applied point; a replica
  below the log window another replica keeps takes that replica's
  ``snapshot_state()`` through ``install_state(state)`` (Zab's SNAP,
  WPaxos's ``ResyncSnap``). No peer replays its log from zero;
* observability — ``sentinel`` and ``_trace`` attributes (``None`` off),
  adopted by :mod:`repro.invariants` / :mod:`repro.trace`.

The service layer reads only this surface and never checks a peer's
class, so a test-only peer that is not a :class:`Peer` still plugs in.

``single_leader`` substrates serialize all objects through one elected
proposer; WanKeeper's broker layer (site-local leader + L2 hub) requires
that shape and refuses multileader substrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "SubstrateSpec",
    "SUBSTRATES",
    "register_substrate",
    "get_substrate",
    "create_peer",
    "substrate_names",
]


@dataclass(frozen=True)
class SubstrateSpec:
    """One registered broadcast substrate."""

    name: str
    #: ``factory(env, net, addr, config, name="") -> peer``
    factory: Callable[..., Any]
    #: True when exactly one member proposes at a time (Zab); WanKeeper's
    #: broker layer requires this shape. Multileader substrates (WPaxos)
    #: report every live voter as a proposer.
    single_leader: bool


SUBSTRATES: Dict[str, SubstrateSpec] = {}


def register_substrate(spec: SubstrateSpec) -> None:
    if spec.name in SUBSTRATES:
        raise ValueError(f"substrate {spec.name!r} already registered")
    SUBSTRATES[spec.name] = spec


def get_substrate(name: str) -> SubstrateSpec:
    try:
        return SUBSTRATES[name]
    except KeyError:
        raise ValueError(
            f"unknown substrate {name!r}; pick from {substrate_names()}"
        ) from None


def create_peer(substrate: str, env, net, addr, config, name: str = ""):
    """Build one substrate peer for a server."""
    return get_substrate(substrate).factory(env, net, addr, config, name=name)


def substrate_names() -> Tuple[str, ...]:
    return tuple(sorted(SUBSTRATES))


# The built-in factories import their backend on first call: each
# backend's peer module imports repro.substrate.peer, and with it this
# package.


def _zab(env, net, addr, config, name: str = ""):
    from repro.zab.peer import ZabPeer

    return ZabPeer(env, net, addr, config, name)


def _wpaxos(env, net, addr, config, name: str = ""):
    from repro.wpaxos.peer import WPaxosPeer

    return WPaxosPeer(env, net, addr, config, name)


register_substrate(SubstrateSpec(name="zab", factory=_zab, single_leader=True))
register_substrate(
    SubstrateSpec(name="wpaxos", factory=_wpaxos, single_leader=False)
)
