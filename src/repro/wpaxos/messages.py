"""WPaxos wire messages.

Ballots are ``(n, owner)`` pairs with ``owner`` the proposing voter's
address rendered as a string, so ballots from different voters never tie
and compare deterministically. Slots are per-object log positions.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.net.message import record
from repro.net.topology import NodeAddress

__all__ = [
    "Ballot",
    "Prepare",
    "Promise",
    "Reject",
    "Accept",
    "Accepted",
    "Learn",
    "SubmitReq",
    "ResyncReq",
    "ResyncRsp",
    "ResyncSnap",
]

#: ``(n, owner_str)`` — lexicographic order; owner_str breaks ties.
Ballot = Tuple[int, str]


@record
class Prepare:
    """Phase-1a: ``src`` tries to take ownership of ``obj`` at ``ballot``.

    ``applied`` is the stealer's contiguous chosen prefix for ``obj`` so
    promisers can piggyback any chosen entries the stealer is missing.
    """

    obj: str
    ballot: Ballot
    src: NodeAddress
    applied: int


@record
class Promise:
    """Phase-1b grant: promiser will reject ballots below ``ballot``.

    ``accepted`` carries the promiser's accepted-but-unchosen entries for
    ``obj`` as ``(slot, ballot, txn)`` triples; ``chosen`` carries chosen
    entries at or above the stealer's ``applied`` mark.
    """

    obj: str
    ballot: Ballot
    src: NodeAddress
    accepted: Tuple[Tuple[int, Ballot, Any], ...]
    chosen: Tuple[Tuple[int, Ballot, Any], ...]


@record
class Reject:
    """Phase-1b refusal: ``promised`` is the ballot that outranks the bid."""

    obj: str
    ballot: Ballot
    src: NodeAddress
    promised: Ballot


@record
class Accept:
    """Phase-2a from the object owner to its zone quorum."""

    obj: str
    ballot: Ballot
    slot: int
    txn: Any
    src: NodeAddress


@record
class Accepted:
    """Phase-2b ack."""

    obj: str
    ballot: Ballot
    slot: int
    src: NodeAddress


@record
class Learn:
    """Commit notification fanned out to every member (learners included)."""

    obj: str
    ballot: Ballot
    slot: int
    txn: Any


@record
class SubmitReq:
    """A transaction forwarded by an observer (or any non-proposer)."""

    txn: Any


@record
class ResyncReq:
    """Catch-up request: ``versions`` maps objects to the requester's
    contiguous chosen prefix, as a sorted ``(obj, next_slot)`` tuple.
    Objects the requester has never heard of are implicitly at 0."""

    src: NodeAddress
    versions: Tuple[Tuple[str, int], ...]


@record
class ResyncRsp:
    """Catch-up reply: chosen entries the requester was missing."""

    entries: Tuple[Tuple[str, int, Ballot, Any], ...]


@record
class ResyncSnap:
    """Catch-up reply by state, for a requester below the sender's window.

    ``state`` is the sender's state machine at ``applied`` (a copy made
    for this one requester, its ``snapshot_state()``); ``applied`` is the
    sender's sorted ``(obj, next_slot)`` vector, and ``entries`` the
    chosen entries it still holds, as in :class:`ResyncRsp`.
    """

    state: Any
    applied: Tuple[Tuple[str, int], ...]
    entries: Tuple[Tuple[str, int, Ballot, Any], ...]
