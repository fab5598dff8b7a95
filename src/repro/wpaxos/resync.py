"""WPaxos anti-entropy: catch-up by chosen entries or by state, and the
chosen log's window.

A peer's state machine is its snapshot, as under Zab. Nothing applies to
a crashed peer, so a restart keeps the promises, the accepted entries,
the applied point of every object and the state machine above them. A
peer that restarts, or finds a hole below a Learn, asks the other voters
for what it lacks with a ``ResyncReq`` naming its applied point on every
object. A voter answers with the chosen entries it holds above those
points (``ResyncRsp``), or, to a requester below its window, with its
state (``ResyncSnap``, the sender's ``snapshot_state()``), which the
requester takes with ``install_state`` only if the sender is at or above
it on every object. The chosen log is a window: after each apply a peer
keeps the entries of its last :data:`repro.substrate.peer.DIFF_WINDOW`
applies, plus each object's newest applied entry (a thief learns from it
where the object's log ends).

:class:`Resync` is a mixin of :class:`repro.wpaxos.peer.WPaxosPeer`; it
reads and writes the peer's chosen log (``_chosen``, ``_applied``,
``_base``, ``_window``, ``_accepted``, ``_gapped``) and calls back into
its ``_record_chosen`` and ``_apply_ready``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Tuple

from repro.net.topology import NodeAddress
from repro.wpaxos.messages import Ballot, ResyncReq, ResyncRsp, ResyncSnap

__all__ = ["Resync"]


class Resync:
    """Catch-up and window methods of a WPaxos peer."""

    def _send_resync_request(self) -> None:
        # Named by applied point, so an object whose entries were all
        # compacted (or that came with an installed state) is named too.
        versions = tuple(sorted(self._applied.items()))
        req = ResyncReq(self.addr, versions)
        for voter in self.config.voters:
            if voter != self.addr:
                self._send(voter, req)

    def _on_resync_req(self, msg: ResyncReq) -> None:
        have = dict(msg.versions)
        held = {obj: self._held_from(obj) for obj in self._base}
        below = any(have.get(obj, 0) < slot for obj, slot in held.items())
        if below and self._dominates(self._applied, msg.versions):
            self._send_snapshot(msg.src)
            return
        entries: List[Tuple[str, int, Ballot, Any]] = []
        for obj in sorted(self._chosen):
            floor = have.get(obj, 0)
            if floor < held.get(obj, 0):
                continue  # below our window, and our state would undo theirs
            entries.extend(
                (obj,) + entry for entry in self._chosen_from(obj, floor)
            )
        if entries:
            self._send(msg.src, ResyncRsp(tuple(entries)))

    @staticmethod
    def _dominates(applied: Dict[str, int],
                   versions: Iterable[Tuple[str, int]]) -> bool:
        """Is ``applied`` at or above every ``(obj, next_slot)``?"""
        return all(applied.get(obj, 0) >= slot for obj, slot in versions)

    def _send_snapshot(self, dst: NodeAddress) -> None:
        hook = self.snapshot_state
        entries = tuple(
            (obj,) + entry
            for obj in sorted(self._chosen)
            for entry in self._chosen_from(obj, 0)
        )
        self._send(dst, ResyncSnap(
            hook() if hook is not None else None,
            tuple(sorted(self._applied.items())), entries,
        ))

    def _on_resync_rsp(self, msg: ResyncRsp) -> None:
        self._take_chosen(msg.entries)

    def _take_chosen(
        self, entries: Iterable[Tuple[str, int, Ballot, Any]]
    ) -> None:
        touched: Dict[str, None] = {}
        for obj, slot, ballot, txn in entries:
            if self._record_chosen(obj, slot, tuple(ballot), txn):
                touched[obj] = None
        for obj in touched:
            if self._trace is not None:
                self._trace.emit(self.env.now, "wpaxos", "resync", self.name,
                                 {"obj": obj})
            self._apply_ready(obj)

    def _on_resync_snap(self, msg: ResyncSnap) -> None:
        mine = self._applied
        ahead = [obj for obj, slot in msg.applied if slot > mine.get(obj, 0)]
        if not ahead:
            return  # nothing we lack: a duplicate, or a second sender's
        if not self._dominates(dict(msg.applied), mine.items()):
            # The sender is behind us somewhere, so its state would undo
            # our applies there. Take what its window reaches, and ask
            # again on the next tick for the rest.
            self._take_chosen(msg.entries)
            for obj, slot in msg.applied:
                if slot > mine.get(obj, 0):
                    self._gapped[obj] = None
            return
        self._install(msg, ahead)

    def _install(self, msg: ResyncSnap, ahead: List[str]) -> None:
        """Jump to the sender's state: every object in ``ahead`` to its
        applied point, holding the sender's window below it."""
        points = dict(msg.applied)
        jumped = dict.fromkeys(ahead)
        for obj in ahead:
            point = points[obj]
            self._applied[obj] = self._base[obj] = point
            self._chosen[obj] = {
                slot: entry for slot, entry in self._chosen_log(obj).items()
                if slot >= point
            }
            accepted = self._accepted.get(obj)
            if accepted:
                self._accepted[obj] = {
                    slot: entry for slot, entry in accepted.items()
                    if slot >= point
                }
        window = self._window = deque(
            obj for obj in self._window if obj not in jumped
        )
        above = []
        for entry in msg.entries:
            obj, slot, ballot, txn = entry
            if obj in jumped and slot < points[obj]:
                # The sender's entries below the point are our window now.
                self._chosen[obj][slot] = (tuple(ballot), txn)
                self._base[obj] = min(self._base[obj], slot)
                window.append(obj)
            else:
                above.append(entry)
        self.snapshots_installed += 1
        if self.sentinel is not None:
            self.sentinel.on_object_install(
                self, {obj: points[obj] for obj in ahead}
            )
        if self._trace is not None:
            self._trace.emit(self.env.now, "wpaxos", "snap", self.name,
                             {"objects": len(ahead)})
        if self.install_state is not None:
            self.install_state(msg.state)
        self._take_chosen(above)
        for obj in ahead:
            self._apply_ready(obj)

    def _compact(self, count: int) -> None:
        """Drop the ``count`` oldest applies from the chosen log; the state
        holds them. Per object, applies leave in slot order, so the slot
        leaving is the object's base. An object's newest applied entry
        stays until the next one leaves: a Promise carrying it shows a
        stealer where the object's log ends, so the stealer never proposes
        in a chosen slot it no longer sees."""
        window = self._window
        chosen_of, applied, base = self._chosen, self._applied, self._base
        for _ in range(count):
            obj = window.popleft()
            slot = base.get(obj, 0)
            base[obj] = slot + 1
            chosen = chosen_of[obj]
            chosen.pop(slot - 1, None)  # the newest, kept when it left
            if slot + 1 < applied[obj]:
                del chosen[slot]

    def _held_from(self, obj: str) -> int:
        """The oldest slot of ``obj`` the chosen log holds: the base, or
        the newest applied entry kept just below it."""
        base = self._base.get(obj, 0)
        if base and base - 1 in self._chosen.get(obj, ()):
            return base - 1
        return base

    def _chosen_from(self, obj: str,
                     floor: int) -> List[Tuple[int, Ballot, Any]]:
        """The held chosen entries of ``obj`` at or above ``floor``, by
        slot: the run up to the applied point, then the slots above a hole
        (there are some iff the dict holds more than the run)."""
        chosen = self._chosen.get(obj)
        if not chosen:
            return []
        base, applied = self._held_from(obj), self._applied.get(obj, 0)
        entries = [
            (slot,) + chosen[slot] for slot in range(max(base, floor), applied)
        ]
        if len(chosen) > applied - base:
            top = max(applied, floor)
            entries.extend(
                (slot,) + chosen[slot]
                for slot in sorted(slot for slot in chosen if slot >= top)
            )
        return entries
