"""Pluggable broadcast-substrate registry.

The coordination service (:mod:`repro.zk.server`) is written against a
*broadcast substrate*: a per-server peer object that turns submitted
transactions into a committed, replicated stream. Any protocol that
honors the contract below can slot under the same ZK service, WanKeeper
layer, fleet driver, and experiment figures.

Peer contract (duck-typed; :class:`repro.zab.peer.ZabPeer` is the
reference implementation, :class:`repro.wpaxos.peer.WPaxosPeer` the
first alternate):

* construction — ``factory(env, net, addr, config, name="")`` where
  ``config`` is an :class:`repro.zab.config.EnsembleConfig` (voters +
  observers + timing knobs);
* lifecycle — ``start()``, ``crash()``, ``restart()`` (durable state
  survives a crash; volatile state does not);
* propose/commit ordering — ``submit(txn)`` on a server that reports
  ``is_leader``; ``forward_submit(txn, ctx=None)`` on one that does not;
  every committed txn is delivered exactly once per live replica through
  the ``on_commit(zxid, txn)`` hook, in an order that is total per
  ordering domain (the whole ensemble for zab; one object for wpaxos);
* leadership + epoch change — ``is_leader``, ``leader_addr``, ``state``
  (a :class:`repro.zab.peer.PeerState`), and ``current_epoch`` (a
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
    description: str = ""


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


def _register_builtins() -> None:
    from repro.zab.peer import ZabPeer
    from repro.wpaxos.peer import WPaxosPeer

    register_substrate(
        SubstrateSpec(
            name="zab",
            factory=ZabPeer,
            single_leader=True,
            description="Zab atomic broadcast: elected leader, "
            "majority quorums, one total order",
        )
    )
    register_substrate(
        SubstrateSpec(
            name="wpaxos",
            factory=WPaxosPeer,
            single_leader=False,
            description="WPaxos multileader: per-object ownership, "
            "flexible grid quorums, phase-1 ballot steals",
        )
    )


_register_builtins()
