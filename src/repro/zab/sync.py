"""Zab election, discovery and synchronization: the phases before broadcast.

A LOOKING peer exchanges votes (last zxid, then server id) until a quorum
agrees; the elected leader learns the newest accepted epoch from a quorum
(discovery), issues the next one and brings each learner up to date with a
DIFF, a TRUNC or a SNAP before NEWLEADER (synchronization). A learner that
joins during broadcast joins the fan-out at once and gets the in-flight
tail (``_catch_up``).

:class:`Sync` is a mixin of :class:`repro.zab.peer.ZabPeer`; it reads and
writes the peer's election, epoch and log state and calls back into its
``_send``, ``_set_state``, ``_reset_leader_state`` and ``_apply_up_to``.
"""

from __future__ import annotations

import enum
from typing import Any, List

from repro.net.topology import NodeAddress
from repro.zab.messages import (
    AckEpoch,
    AckNewLeader,
    Commit,
    Diff,
    FollowerInfo,
    Inform,
    LeaderInfo,
    NewLeader,
    Propose,
    Snap,
    Trunc,
    UpToDate,
    Vote,
    VoteNotification,
)
from repro.zab.zxid import Zxid

__all__ = ["PeerState", "Sync"]


class PeerState(str, enum.Enum):
    LOOKING = "looking"
    FOLLOWING = "following"
    LEADING = "leading"
    OBSERVING = "observing"
    DOWN = "down"


class Sync:
    """Election, discovery and synchronization methods of a Zab peer."""

    # -------------------------------------------------------------- election

    def _enter_looking(self) -> None:
        self.leader_addr = None
        self._reset_leader_state()
        self._set_state(PeerState.LOOKING)
        self._round += 1
        self._vote = Vote(self.addr, self.last_zxid)
        self._round_votes = {self.addr: self._vote}
        self._broadcast_vote()
        self._maybe_elect()

    def _broadcast_vote(self) -> None:
        if self._vote is None:
            return
        note = VoteNotification(self.addr, self._vote, self._round, self.state.value)
        for voter in self.config.voters:
            if voter != self.addr:
                self._send(voter, note)

    def _on_vote_notification(self, src: NodeAddress, msg: VoteNotification) -> None:
        if self.is_observer:
            return
        if self.state != PeerState.LOOKING:
            # Tell the looking peer about the established regime — but only
            # vouch for a leader we have *recently* heard from, or two
            # followers of a dead leader can redirect each other at it
            # forever instead of re-electing.
            if (
                msg.sender_state == PeerState.LOOKING.value
                and self.leader_addr is not None
                and self._regime_is_fresh()
            ):
                reply = VoteNotification(
                    self.addr,
                    Vote(self.leader_addr, self.last_zxid),
                    msg.round,
                    self.state.value,
                )
                self._send(src, reply)
            return

        if msg.sender_state in (PeerState.FOLLOWING.value, PeerState.LEADING.value):
            # An established regime exists: join it.
            self._join_leader(msg.vote.node)
            return

        if msg.round > self._round:
            self._round = msg.round
            own = Vote(self.addr, self.last_zxid)
            self._vote = msg.vote if msg.vote.beats(own) else own
            self._round_votes = {self.addr: self._vote, msg.sender: msg.vote}
            self._broadcast_vote()
        elif msg.round == self._round:
            self._round_votes[msg.sender] = msg.vote
            assert self._vote is not None
            if msg.vote.beats(self._vote):
                self._vote = msg.vote
                self._round_votes[self.addr] = self._vote
                self._broadcast_vote()
        else:
            # Stale round: help the sender catch up.
            self._broadcast_vote()
            return
        self._maybe_elect()

    def _maybe_elect(self) -> None:
        if self.state != PeerState.LOOKING or self._vote is None:
            return
        supporters = sum(
            1 for vote in self._round_votes.values() if vote == self._vote
        )
        if supporters < self._quorum:
            return
        self.elections_completed += 1
        if self._vote.node == self.addr:
            self._become_leader()
        else:
            self._join_leader(self._vote.node)

    def _become_leader(self) -> None:
        self._set_state(PeerState.LEADING)
        self.leader_addr = self.addr
        self._reset_leader_state()
        self._discovery_epochs = {self.addr: self.accepted_epoch}
        self._maybe_establish_epoch()

    def _join_leader(self, leader: NodeAddress) -> None:
        self._set_state(PeerState.FOLLOWING)
        self.leader_addr = leader
        self._last_leader_contact = self.env.now
        self._send(
            leader, FollowerInfo(self.addr, self.accepted_epoch, self.last_zxid)
        )

    # -------------------------------------------------------------- discovery

    def _regime_is_fresh(self) -> bool:
        """Did we hear from our leader recently enough to vouch for it?"""
        if self.state == PeerState.LEADING:
            return True
        return (
            self.env.now - self._last_leader_contact
            <= self.config.election_timeout_ms / 2.0
        )

    def _on_follower_info(self, src: NodeAddress, msg: FollowerInfo) -> None:
        if self.state != PeerState.LEADING:
            # Redirect: tell the sender about the leader we follow, if any.
            if (
                self.state == PeerState.FOLLOWING
                and self.leader_addr is not None
                and self._regime_is_fresh()
            ):
                self._send(
                    src,
                    VoteNotification(
                        self.addr,
                        Vote(self.leader_addr, self.last_zxid),
                        self._round,
                        self.state.value,
                    ),
                )
            return
        self._last_heard[src] = self.env.now
        if self.config.is_observer(src):
            # Observers don't gate epoch establishment; sync them once the
            # epoch is live.
            if self._epoch_established:
                self._send(src, LeaderInfo(self.addr, self.current_epoch))
            return
        self._discovery_epochs[src] = msg.accepted_epoch
        if self._epoch_established:
            self._send(src, LeaderInfo(self.addr, self.current_epoch))
        else:
            self._maybe_establish_epoch()

    def _maybe_establish_epoch(self) -> None:
        if self._epoch_established:
            return
        if len(self._discovery_epochs) < self._quorum:
            return
        new_epoch = max(self._discovery_epochs.values()) + 1
        self.accepted_epoch = new_epoch
        self.current_epoch = new_epoch
        self._next_counter = 0
        self._epoch_established = True
        for follower in self._discovery_epochs:
            if follower != self.addr:
                self._send(follower, LeaderInfo(self.addr, new_epoch))
        # The leader acks its own NEWLEADER.
        self._newleader_acks = {self.addr}
        self._maybe_activate_broadcast()

    def _on_leader_info(self, src: NodeAddress, msg: LeaderInfo) -> None:
        if self.state not in (PeerState.FOLLOWING, PeerState.OBSERVING):
            return
        if msg.new_epoch < self.accepted_epoch:
            return  # stale leader
        self.accepted_epoch = msg.new_epoch
        self.leader_addr = src
        self._last_leader_contact = self.env.now
        self._send(src, AckEpoch(self.addr, self.current_epoch, self.last_zxid))

    def _on_ack_epoch(self, src: NodeAddress, msg: AckEpoch) -> None:
        if self.state != PeerState.LEADING or not self._epoch_established:
            return
        self._last_heard[src] = self.env.now
        self._sync_follower(src, msg.last_zxid)

    # ---------------------------------------------------------- synchronization

    def _sync_follower(self, follower: NodeAddress, follower_last: Zxid) -> None:
        """Send DIFF/TRUNC/SNAP plus NEWLEADER to one follower.

        During active broadcast only the *committed* prefix is synced;
        in-flight proposals are re-proposed individually so the joiner votes
        on them like everyone else. The joiner joins the fan-out
        immediately — FIFO channels guarantee it sees sync before any
        subsequent proposal/commit, closing the join-window gap.
        """
        sync_to = self.last_committed if self._broadcast_active else self.last_zxid
        log = self.log
        if follower_last <= sync_to:
            # Below what the log still holds, or off our history: the
            # learner takes our state at the applied point, then the
            # suffix above it.
            diff = follower_last == log.base or log.contains(follower_last)
            start = follower_last if diff else self._last_applied
            suffix = [e for e in log.entries_after(start) if e.zxid <= sync_to]
            if diff:
                self._send(follower, Diff(self.addr, suffix))
            else:
                hook = self.snapshot_state
                state = hook() if hook is not None else None
                self._send(follower, Snap(self.addr, state, start, suffix))
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

    def _join_fanout(self, member: NodeAddress) -> None:
        """Add ``member`` to its role's fan-out tuple, kept sorted: set
        order is string hash order, which varies per interpreter
        (PYTHONHASHSEED) and would leak into the network jitter RNG's
        draw order."""
        if self.config.is_observer(member):
            if member not in self._fanout_observers:
                self._fanout_observers = tuple(
                    sorted((*self._fanout_observers, member)))
        elif member not in self._fanout_followers:
            self._fanout_followers = tuple(
                sorted((*self._fanout_followers, member)))

    def _catch_up(self, member: NodeAddress) -> None:
        """Ship everything the member missed since its recorded sync point."""
        synced_to = self._synced_to.get(member, Zxid.ZERO)
        if self.config.is_observer(member):
            for entry in self.log.entries_after(synced_to):
                if entry.zxid <= self.last_committed:
                    self._send(member, Inform(self.addr, entry.zxid, entry.txn))
                    self._synced_to[member] = entry.zxid
        else:
            committed_to = None
            for entry in self.log.entries_after(synced_to):
                self._send(member, Propose(self.addr, entry.zxid, entry.txn))
                if entry.zxid <= self.last_committed:
                    committed_to = entry.zxid
            if committed_to is not None:
                # One cumulative Commit after the proposals: the member log
                # now holds every entry up to it (FIFO link), and followers
                # apply commit ranges.
                self._send(member, Commit(self.addr, committed_to))
            self._synced_to[member] = self.log.last_zxid

    def _on_diff(self, src: NodeAddress, msg: Diff) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self._append_new(msg.entries)

    def _on_trunc(self, src: NodeAddress, msg: Trunc) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.log.truncate_after(msg.truncate_to)
        # Committed entries are never truncated, but the cursor's validity
        # should not rest on the leader being right about that.
        self._cursor = self.log.position_after(self._last_applied)
        self._append_new(msg.entries)

    def _append_new(self, entries: List[Any]) -> None:
        """Append the synced entries we do not hold yet.

        The leader cuts a DIFF/TRUNC suffix right after the tail we
        reported, so what is new follows our tail; the log raises on a
        hole rather than storing one.
        """
        log = self.log
        for entry in entries:
            if entry.zxid > log.last_zxid:
                log.append(entry.zxid, entry.txn)

    def _on_snap(self, src: NodeAddress, msg: Snap) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        installed = msg.zxid > self._last_applied
        if installed:
            # Our state jumps to the leader's applied point. Everything we
            # applied is committed, so it is inside the snapshot; a peer
            # that applied past it (and a duplicate of this message) keeps
            # its own state and only takes the log.
            self._last_applied = msg.zxid
            if self.install_state is not None:
                self.install_state(msg.state)
        self.log.replace_all(msg.entries, base=msg.zxid)
        self._cursor = self.log.position_after(self._last_applied)
        self.last_committed = self._last_applied
        if self._trace is not None:
            self._trace.emit(self.env.now, "zab", "snap", self.name,
                             {"zxid": str(msg.zxid), "installed": installed,
                              "entries": len(msg.entries)})

    def _on_new_leader(self, src: NodeAddress, msg: NewLeader) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        self.current_epoch = msg.epoch
        self._send(src, AckNewLeader(self.addr, msg.epoch))

    def _on_ack_new_leader(self, src: NodeAddress, msg: AckNewLeader) -> None:
        if self.state != PeerState.LEADING or msg.epoch != self.current_epoch:
            return
        self._last_heard[src] = self.env.now
        self._newleader_acks.add(src)
        if self._broadcast_active:
            # Late joiner: activate it immediately.
            self._activate_member(src)
            return
        self._maybe_activate_broadcast()

    def _maybe_activate_broadcast(self) -> None:
        if self._broadcast_active:
            return
        voter_acks = sum(
            1 for peer in self._newleader_acks if self.config.is_voter(peer)
        )
        if voter_acks < self._quorum:
            return
        self._broadcast_active = True
        # Entries surviving into the new epoch are now committed.
        self.last_committed = self.last_zxid
        self._apply_up_to(self.last_committed)
        for peer in list(self._newleader_acks):
            if peer != self.addr:
                self._activate_member(peer)
        if self.on_leader_activated is not None:
            self.on_leader_activated(self)

    def _activate_member(self, member: NodeAddress) -> None:
        self._join_fanout(member)
        # Ship anything proposed/committed since the member's sync point
        # (it may have synced during establishment and activated later).
        self._catch_up(member)
        self._send(
            member,
            UpToDate(self.addr, self.current_epoch, committed_to=self.last_committed),
        )

    def _on_up_to_date(self, src: NodeAddress, msg: UpToDate) -> None:
        if src != self.leader_addr:
            return
        self._last_leader_contact = self.env.now
        # The leader's commit point at activation; anything we hold beyond
        # it is still in flight and commits normally later.
        if msg.committed_to > self.last_committed:
            self.last_committed = msg.committed_to
            self._apply_up_to(self.last_committed)
