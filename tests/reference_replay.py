"""Replay from zero: the Zab and WPaxos restarts (and the Zab SNAP) that
state transfer replaced, kept as differential oracles.

Before a replica kept its state across a restart, ``ZabPeer.restart``
reset the applied point to zero and the server re-applied the whole
durable log; a SNAP shipped the leader's whole log (``WholeLogSnap``,
the old ``Snap`` message) and the learner rebuilt its state by
re-applying it from zero; and the log never dropped an entry.
:class:`ReplayFromZero` restores exactly that over the product peer: the
server above it is the product's, reset by :func:`reset_server_above`
(each oracle's default ``on_reset``: the product wires no such hook), so
every difference between a world on ``zab`` and one on ``zab-replay`` is
the peer's. :func:`forget_applied` tells the sentinel the peer's applied
points start again from zero.

``tests/test_state_transfer_reference.py`` drives seeded twin worlds in
lockstep and demands the same clients' histories, the same messages
(a DIFF, a SNAP and a whole-log SNAP are each one sync message), the same
trees and the same at-most-once tables. Registered by the tests as
substrate ``"zab-replay"`` (:func:`register`) — nothing under ``src/``
may import this.

Likewise, before a WPaxos replica kept its state, ``WPaxosPeer.restart``
reset the applied points, reset the server above and re-applied every chosen
slot from zero; the chosen log kept every slot; and a ``ResyncRsp`` or a
``Promise`` sorted an object's whole history to answer.
:class:`ReplayWPaxosFromZero` restores that over the product peer as
substrate ``"wpaxos-replay"`` (:func:`register_wpaxos`). With nothing
compacted it never needs a ``ResyncSnap``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import List

from repro.net.topology import NodeAddress
from repro.sim.kernel import Ticker
from repro.substrate import SubstrateSpec, register_substrate
from repro.substrate.peer import PeerState
from repro.wankeeper.server import WanKeeperServer
from repro.wpaxos.messages import Prepare, Promise, Reject, ResyncReq, ResyncRsp
from repro.wpaxos.peer import ZERO_BALLOT, WPaxosPeer
from repro.zab.log import LogEntry
from repro.zab.messages import Diff, NewLeader, Trunc
from repro.zab.peer import ZabPeer
from repro.zab.zxid import Zxid

__all__ = [
    "ReplayFromZero", "ReplayZabPeer", "ReplayWPaxosFromZero",
    "ReplayWPaxosPeer", "WholeLogSnap", "forget_applied", "register",
    "register_wpaxos", "reset_server_above",
]


def reset_server_above(peer) -> None:
    """The state machine above ``peer`` empties, as before the log's first
    entry, so the replay from zero rebuilds it.

    The server is the owner of the peer's ``on_commit``, found through any
    ``functools.wraps`` wrapper a test records commits with. Everything
    the server's ``_initial_state`` declares resets: the at-most-once
    table is derived from the commit stream, so it resets with the tree —
    a stale table would suppress the legitimate replay — and so does a
    WanKeeper server's replicated WAN state, whose relay-site list goes
    back to the founding sites as on an install. The origin's stored
    replies stay; the replay stores each one again.
    """
    server = inspect.unwrap(peer.on_commit).__self__
    server._reset_state()
    sentinel = server.sentinel
    if sentinel is not None:
        for key in [key for key in sentinel._applies if key[0] == server.name]:
            del sentinel._applies[key]
    if isinstance(server, WanKeeperServer):
        server._relay_sites = server._founding_relay_sites()
        server._hub.queue.stale = True


def forget_applied(peer) -> None:
    """The peer replays from zero: the sentinel forgets its applied zxid and
    its per-object applied slots."""
    sentinel = peer.sentinel
    if sentinel is None:
        return
    sentinel._peer_applied.pop(peer.name, None)
    for key in [key for key in sentinel._object_applied if key[0] == peer.name]:
        del sentinel._object_applied[key]


@dataclass
class WholeLogSnap:
    """Leader -> follower: full log snapshot."""

    sender: NodeAddress
    entries: List[LogEntry]


class ReplayFromZero:
    """Mixin over :class:`ZabPeer`: restart and SNAP replay from zero."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._handlers[WholeLogSnap] = self._on_whole_log_snap
        self.on_reset = reset_server_above

    def restart(self) -> None:
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self._last_applied = Zxid.ZERO
        self._cursor = 0
        # The durable log replays from zero; applied-zxid tracking
        # restarts with it.
        forget_applied(self)
        self.on_reset(self)
        super().restart()

    def _sync_follower(self, follower: NodeAddress, follower_last: Zxid) -> None:
        sync_to = self.last_committed if self._broadcast_active else self.last_zxid
        synced_entries = [
            entry
            for entry in self.log.entries_after(follower_last)
            if entry.zxid <= sync_to
        ]
        if follower_last <= sync_to:
            if follower_last == Zxid.ZERO or self.log.contains(follower_last):
                self._send(follower, Diff(self.addr, synced_entries))
            else:
                self._send(
                    follower,
                    WholeLogSnap(
                        self.addr,
                        [e for e in self.log.entries if e.zxid <= sync_to],
                    ),
                )
        else:
            # Follower is ahead of our sync point: its extra entries were
            # never committed (quorum intersection); truncate them away.
            self._send(follower, Trunc(self.addr, sync_to))
        self._send(follower, NewLeader(self.addr, self.current_epoch))
        self._synced_to[follower] = sync_to
        if self._broadcast_active:
            # Join the fan-out now; ship the in-flight tail.
            self._join_fanout(follower)
            self._catch_up(follower)

    def _on_whole_log_snap(self, src: NodeAddress, msg: WholeLogSnap) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.log.replace_all(msg.entries)
        # A snapshot may rewrite history below our applied point; the state
        # machine is rebuilt from scratch by re-applying from zero.
        self._last_applied = Zxid.ZERO
        self._cursor = 0
        self.last_committed = Zxid.ZERO
        if self._trace is not None:
            self._trace.emit(self.env.now, "zab", "snap-reset", self.name,
                             {"entries": len(msg.entries)})
        forget_applied(self)
        self.on_reset(self)

    def _apply_up_to(self, zxid: Zxid) -> None:
        """Deliver every logged entry up to ``zxid``; the log keeps all."""
        if zxid <= self._last_applied:
            return
        on_commit = self.on_commit
        if on_commit is None:
            self._last_applied = zxid
            self._cursor = self.log.position_after(zxid)
            return
        entries = self.log.entries
        # Anything appended from here on is a newer proposal: past ``zxid``.
        end = len(entries)
        while self._cursor < end:
            entry = entries[self._cursor]
            entry_zxid = entry.zxid
            if entry_zxid > zxid:
                break
            self._cursor += 1
            self._last_applied = entry_zxid
            self.commits_delivered += 1
            if self.sentinel is not None:
                self.sentinel.on_peer_commit(self, entry_zxid, entry.txn)
            on_commit(entry_zxid, entry.txn)


class ReplayZabPeer(ReplayFromZero, ZabPeer):
    pass


class ReplayWPaxosFromZero:
    """Mixin over :class:`WPaxosPeer`: the restart, the resync request and
    the full-history ``ResyncRsp`` / ``Promise`` from before a WPaxos
    replica kept its state, and a chosen log that keeps every slot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_reset = reset_server_above

    def restart(self) -> None:
        """Rejoin after a crash: replay the durable chosen log from zero,
        then anti-entropy the committed suffix from the other members."""
        if self._alive:
            raise RuntimeError(f"{self.name} is running")
        self.net.restart(self.addr)
        self._alive = True
        self._applied = {}
        # State machine resets to empty before the replay below
        # re-delivers every chosen txn (same contract as Zab).
        self.on_reset(self)
        forget_applied(self)
        self._set_state(
            PeerState.OBSERVING if self.is_observer else PeerState.LEADING
        )
        for obj in sorted(self._chosen):
            self._apply_ready(obj)
        self._send_resync_request()
        self._ticker = Ticker(
            self.env, self.config.heartbeat_interval_ms, self._on_tick
        )
        if self.on_leader_activated is not None and not self.is_observer:
            self.on_leader_activated(self)

    def _compact(self, count: int) -> None:
        """The chosen log keeps every slot."""
        self._window.clear()

    def _on_prepare(self, msg: Prepare) -> None:
        promised = self._promised.get(msg.obj, ZERO_BALLOT)
        if msg.ballot <= promised:
            self._send(
                msg.src, Reject(msg.obj, msg.ballot, self.addr, promised)
            )
            return
        self._promised[msg.obj] = msg.ballot
        self._bump_epoch(msg.ballot[0])
        ours = self._stealing.get(msg.obj)
        if ours is not None and ours.ballot < msg.ballot:
            if msg.ballot > ours.highest_seen:
                ours.highest_seen = msg.ballot
            if ours.retry_at is None:
                stagger = self.config.heartbeat_interval_ms * (
                    1 + self._voter_index
                )
                ours.retry_at = self.env.now + stagger
        if msg.obj in self._owned:
            self._owned.pop(msg.obj, None)
            if self._trace is not None:
                self._trace.emit(self.env.now, "wpaxos", "demote", self.name,
                                 {"obj": msg.obj, "to": str(msg.src)})
        chosen = self._chosen.get(msg.obj, {})
        chosen_above = tuple(
            (slot, entry[0], entry[1])
            for slot, entry in sorted(chosen.items())
            if slot >= msg.applied
        )
        self._send(
            msg.src,
            Promise(msg.obj, msg.ballot, self.addr,
                    self._accepted_triples(msg.obj), chosen_above),
        )

    def _send_resync_request(self) -> None:
        versions = tuple(
            (obj, self._applied.get(obj, 0)) for obj in sorted(self._chosen)
        )
        req = ResyncReq(self.addr, versions)
        for voter in self.config.voters:
            if voter != self.addr:
                self._send(voter, req)

    def _on_resync_req(self, msg: ResyncReq) -> None:
        have = dict(msg.versions)
        entries = []
        for obj in sorted(self._chosen):
            floor = have.get(obj, 0)
            for slot, (ballot, txn) in sorted(self._chosen[obj].items()):
                if slot >= floor:
                    entries.append((obj, slot, ballot, txn))
        if entries:
            self._send(msg.src, ResyncRsp(tuple(entries)))


class ReplayWPaxosPeer(ReplayWPaxosFromZero, WPaxosPeer):
    pass


def register() -> None:
    register_substrate(
        SubstrateSpec("zab-replay", ReplayZabPeer, single_leader=True)
    )


def register_wpaxos() -> None:
    register_substrate(
        SubstrateSpec("wpaxos-replay", ReplayWPaxosPeer, single_leader=False)
    )
