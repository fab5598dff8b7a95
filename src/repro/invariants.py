"""Online invariant sentinel: safety checks that run *during* a simulation.

The paper's performance story rests on safety properties it never
re-checks at runtime — §III's single-writer token rule, Zab's
committed-prefix agreement, session/ephemeral consistency. The sentinel
turns those into always-on assertions evaluated at the moment the relevant
state changes, so a latent bug surfaces as a raised
:class:`InvariantViolation` (with the last N trace events attached) instead
of a silently perturbed seeded digest.

Checked invariants:

* **single-token-ownership** — at most one site may hold a record's write
  token at any instant, including bulk (sequential-parent) tokens and the
  windows where grants/recalls are in flight, and no site may hold a token
  while the hub serializes a write or grants a fractional read lease on it;
* **zxid-monotonic** — each peer applies commits in strictly increasing
  zxid order, across restarts and SNAP installs: a replica keeps its
  applied point, so no peer ever applies an older zxid;
* **committed-prefix** — all peers of one ensemble apply the *same*
  transaction at each committed zxid;
* **object-order / object-agreement** (wpaxos substrate) — each peer
  applies every object's commits as a contiguous slot sequence, and all
  peers of one ensemble apply the same transaction at each (object,
  slot);
* **single-owner-exclusivity** (wpaxos substrate) — per object, at most
  one peer ever adopts a given ballot, and adopted ballots strictly
  increase — the steal-based analogue of single-token-ownership;
* **no-double-apply** — no replica applies the same ``(session_id,
  cxid)`` twice (the lossy-soak check, generalized into an always-on
  hook);
* **reply-coherence** — every replica's first apply of a given
  ``(session_id, cxid)`` has the same outcome, compared as the
  client-visible reply it stands for (modulo per-ensemble zxids in
  ``Stat``) — though only the origin builds that reply;
* **lease-coherence** — a site leader may not serve a fractional read
  (§VI) from a lease that has expired, or that was granted before an
  invalidation this leader already acknowledged (no fault the nemesis
  injects makes a leader lie; ``tests/test_invariants.py`` trips it with
  a leader whose strong reads keep their leases);
* **ephemeral-liveness** — at quiesce, no ephemeral node survives its
  owner session's expiry (:meth:`InvariantSentinel.final_check`);
* **stranded-grant** — at quiesce, for every key the hub leader locates
  at a site with a live leader, that leader has seen at least as many
  grants of the key as the hub sent it. A site behind the hub takes
  every recall for one that overtook its grant and stays silent, so the
  token never comes back (:meth:`InvariantSentinel.final_check`).

Enablement: ``REPRO_SENTINEL=1`` in the environment (the test suite turns
it on by default via ``tests/conftest.py``; ``python -m repro experiments
--sentinel`` turns it on for experiment runs). The disabled path is a
single ``is not None`` branch at every hook site.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.trace import TraceBuffer, install_trace

__all__ = [
    "InvariantSentinel",
    "InvariantViolation",
    "attach_sentinel",
    "maybe_attach_sentinel",
    "sentinel_enabled",
]

#: Environment variable gating default sentinel attachment in builders.
SENTINEL_ENV = "REPRO_SENTINEL"

#: How many trailing trace events a violation carries by default.
DEFAULT_TAIL = 40


class InvariantViolation(AssertionError):
    """A safety invariant failed during the run.

    Carries the machine-readable pieces (``invariant``, ``detail``,
    ``trace_tail``) alongside a formatted message that includes the last N
    trace events — the first divergent event is the last thing that
    happened before the check fired.
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        trace_tail: Iterable[Any] = (),
        rendered_tail: str = "",
    ):
        self.invariant = invariant
        self.detail = detail
        self.trace_tail = list(trace_tail)
        message = f"invariant violated [{invariant}]: {detail}"
        if rendered_tail:
            message += (
                f"\nlast {len(self.trace_tail)} trace events"
                " (most recent last):\n" + rendered_tail
            )
        super().__init__(message)


def sentinel_enabled() -> bool:
    """Is default sentinel attachment requested via the environment?"""
    return os.environ.get(SENTINEL_ENV, "0").lower() not in ("", "0", "false", "off")


class InvariantSentinel:
    """Checks safety invariants online, across every server of a deployment.

    One instance watches one deployment (all ensembles of a WanKeeper
    system, or the single ensemble of a ZK baseline). Servers and peers
    reach it through their ``sentinel`` attribute; every hook is guarded at
    the call site by ``if self.sentinel is not None`` so the detached
    configuration costs one branch.
    """

    def __init__(
        self,
        trace: Optional[TraceBuffer] = None,
        tail: int = DEFAULT_TAIL,
    ):
        self.trace = trace
        self.tail = tail
        self.checks_run = 0
        self.violations = 0
        self._servers: List[Any] = []
        # peer name -> last applied zxid.
        self._peer_applied: Dict[str, Any] = {}
        # (ensemble id, zxid) -> digest of the committed payload.
        self._committed: Dict[Tuple[int, Any], str] = {}
        # (server name, session_id, cxid) -> [op digest, apply count].
        self._applies: Dict[Tuple[str, str, int], List[Any]] = {}
        # (session_id, cxid) -> (op digest, canonical reply).
        self._replies: Dict[Tuple[str, int], Tuple[str, Any]] = {}
        # (server name, token key) -> time of the latest invalidation this
        # server acknowledged (fractional reads, §VI).
        self._lease_invalidated: Dict[Tuple[str, str], float] = {}
        # --- wpaxos substrate ---
        # (peer name, object) -> next slot the peer must apply.
        self._object_applied: Dict[Tuple[str, str], int] = {}
        # (ensemble id, object, slot) -> digest of the chosen txn.
        self._object_chosen: Dict[Tuple[int, str, int], str] = {}
        # (ensemble id, object) -> (last adopted ballot, adopter name).
        self._object_owner: Dict[Tuple[int, str], Tuple[Any, str]] = {}

    # ------------------------------------------------------------- wiring

    def adopt(self, servers: Iterable[Any]) -> None:
        """Start watching ``servers`` (idempotent per server)."""
        for server in servers:
            if server in self._servers:
                continue
            self._servers.append(server)
            server.sentinel = self
            server.peer.sentinel = self

    # ------------------------------------------------------------- failure

    def _fail(self, invariant: str, detail: str) -> None:
        self.violations += 1
        tail: List[Any] = []
        rendered = ""
        if self.trace is not None:
            tail = self.trace.tail(self.tail)
            rendered = self.trace.format_tail(self.tail)
        raise InvariantViolation(invariant, detail, tail, rendered)

    # --------------------------------------------------------- zab hooks

    def on_peer_commit(self, peer, zxid, payload: Any) -> None:
        """Called by ``ZabPeer._apply_up_to`` for every applied commit."""
        self.checks_run += 1
        last = self._peer_applied.get(peer.name)
        if last is not None and zxid <= last:
            self._fail(
                "zxid-monotonic",
                f"{peer.name} applied {zxid} after {last}",
            )
        self._peer_applied[peer.name] = zxid
        ensemble = id(peer.config)
        digest = repr(payload)
        key = (ensemble, zxid)
        prior = self._committed.get(key)
        if prior is None:
            self._committed[key] = digest
        elif prior != digest:
            self._fail(
                "committed-prefix",
                f"{peer.name} applied a different txn at {zxid}: "
                f"{digest[:200]} != first-seen {prior[:200]}",
            )

    # ------------------------------------------------------ wpaxos hooks

    def on_object_commit(self, peer, obj: str, slot: int, ballot,
                         payload: Any) -> None:
        """Called by ``WPaxosPeer._apply_ready`` for every applied commit.

        Per-object analogue of :meth:`on_peer_commit`: commits within one
        object must apply as a contiguous slot sequence on each peer, and
        every peer must see the same transaction at each (object, slot).
        Ballots are *not* compared — a slot chosen at one ballot can be
        re-learned at a thief's higher ballot; the value is what Paxos
        pins.
        """
        self.checks_run += 1
        applied_key = (peer.name, obj)
        expected = self._object_applied.get(applied_key, 0)
        if slot != expected:
            self._fail(
                "object-order",
                f"{peer.name} applied {obj!r} slot {slot} "
                f"(expected {expected})",
            )
        self._object_applied[applied_key] = slot + 1
        digest = repr(payload)
        chosen_key = (id(peer.config), obj, slot)
        prior = self._object_chosen.get(chosen_key)
        if prior is None:
            self._object_chosen[chosen_key] = digest
        elif prior != digest:
            self._fail(
                "object-agreement",
                f"{peer.name} applied a different txn at {obj!r} slot "
                f"{slot}: {digest[:200]} != first-seen {prior[:200]}",
            )

    def on_object_owner(self, peer, obj: str, ballot) -> None:
        """Called by ``WPaxosPeer`` on adopting ownership of ``obj``.

        The steal-based analogue of single-token-ownership: ballots are
        globally unique (they embed the proposer address), so two peers
        adopting the same ballot — or an adoption at or below the last
        adopted ballot — means two owners could commit concurrently.
        """
        self.checks_run += 1
        owner_key = (id(peer.config), obj)
        prior = self._object_owner.get(owner_key)
        if prior is not None:
            last_ballot, last_owner = prior
            if tuple(ballot) == tuple(last_ballot) and peer.name != last_owner:
                self._fail(
                    "single-owner-exclusivity",
                    f"{peer.name} adopted {obj!r} at ballot {ballot}, "
                    f"already owned at that ballot by {last_owner}",
                )
            if tuple(ballot) <= tuple(last_ballot):
                self._fail(
                    "single-owner-exclusivity",
                    f"{peer.name} adopted {obj!r} at ballot {ballot}, not "
                    f"above the last adoption {last_ballot} by {last_owner}",
                )
        self._object_owner[owner_key] = (tuple(ballot), peer.name)

    def on_object_install(self, peer, applied: Dict[str, int]) -> None:
        """A WPaxos peer took a sender's state: each object in ``applied``
        resumes at the given next slot."""
        for obj, slot in applied.items():
            self._object_applied[(peer.name, obj)] = slot

    # ---------------------------------------------------------- zk hooks

    def on_apply(self, server, txn, outcome) -> None:
        """Called by ``ZkServer._commit_client_txn`` after each apply with
        its ``ApplyOutcome``: only the origin builds a reply."""
        self.checks_run += 1
        op_digest = repr(txn.op)
        apply_key = (server.name, txn.session_id, txn.cxid)
        record = self._applies.get(apply_key)
        if record is None or record[0] != op_digest:
            # First apply — or a (session, cxid) reused by a different
            # request after the hosting server lost its session counter in
            # a crash; that is a fresh request, not a duplicate.
            self._applies[apply_key] = [op_digest, 1]
        else:
            record[1] += 1
            self._fail(
                "no-double-apply",
                f"{server.name} applied ({txn.session_id!r}, "
                f"cxid={txn.cxid}) {record[1]} times "
                f"(op {op_digest[:120]})",
            )
        canonical = _canonical_reply(outcome)
        reply_key = (txn.session_id, txn.cxid)
        prior = self._replies.get(reply_key)
        if prior is None or prior[0] != op_digest:
            self._replies[reply_key] = (op_digest, canonical)
        elif prior[1] != canonical:
            self._fail(
                "reply-coherence",
                f"{server.name} applied a different outcome for "
                f"({txn.session_id!r}, cxid={txn.cxid}): {canonical!r} != "
                f"first-seen {prior[1]!r}",
            )

    # --------------------------------------------------------- wan hooks

    def on_local_admit(self, server, keys: Iterable[str]) -> None:
        """A site leader admits a local write under its tokens."""
        self.checks_run += 1
        self._check_exclusive(server, keys, "local write admitted")

    def on_token_grant(self, server, key: str, site: str) -> None:
        """A site leader applied a committed grant of ``key`` to itself."""
        self.checks_run += 1
        self._check_exclusive(server, (key,), f"grant to {site!r} applied")

    def on_hub_serialize(self, server, keys: Iterable[str]) -> None:
        """The hub serializes a write — every needed token must be home."""
        self.checks_run += 1
        for key in sorted(keys):
            if not server.hub_tokens.at_hub(key):
                self._fail(
                    "single-token-ownership",
                    f"hub {server.name} serialized a write on {key!r} while "
                    f"the token is at {server.hub_tokens.where(key)!r}",
                )
        self._check_exclusive(server, keys, "hub-serialized write")

    def on_lease_grant(self, server, key: str) -> None:
        """The hub grants a fractional read lease — token must be home."""
        self.checks_run += 1
        if not server.hub_tokens.at_hub(key):
            self._fail(
                "single-token-ownership",
                f"hub {server.name} granted a read lease on {key!r} while "
                f"the token is at {server.hub_tokens.where(key)!r}",
            )
        self._check_exclusive(server, (key,), "read lease granted")

    def on_lease_invalidate_ack(self, server, keys: Iterable[str]) -> None:
        """A site leader acknowledged a fractional-read invalidation."""
        now = server.env.now
        for key in sorted(keys):
            self._lease_invalidated[(server.name, key)] = now

    def on_lease_read(self, server, path: str, lease) -> None:
        """A site leader serves a read from a fractional lease (§VI).

        The lease must still be inside its validity window, and must have
        been granted *after* any invalidation this leader acknowledged for
        its token — an honest leader drops leases on invalidation and
        never serves expired ones, so either failure means stale reads.
        """
        self.checks_run += 1
        now = server.env.now
        if lease.expires <= now:
            self._fail(
                "lease-coherence",
                f"{server.name} served {path!r} from a lease that expired "
                f"at {lease.expires:.3f} (now {now:.3f})",
            )
        granted_at = lease.expires - server.wan.read_lease_ms
        acked = self._lease_invalidated.get((server.name, lease.key))
        if acked is not None and acked > granted_at:
            self._fail(
                "lease-coherence",
                f"{server.name} served {path!r} from a lease granted at "
                f"{granted_at:.3f} but invalidated (and acked) at "
                f"{acked:.3f}",
            )

    def _check_exclusive(self, server, keys: Iterable[str], what: str) -> None:
        """No *other* site's live leader may hold any of ``keys``.

        Only leaders are compared: follower token state lags its ensemble's
        committed log by design, while a leader is always at least as new
        as everything the hub has accepted (releases commit in the site
        ensemble before the hub may re-grant).
        """
        for other in self._servers:
            if other is server or other.site == server.site:
                continue
            if not (other.is_alive and other.peer.is_leader):
                continue
            tokens = getattr(other, "site_tokens", None)
            if tokens is None:
                continue
            for key in sorted(keys):
                if key in tokens.owned:
                    self._fail(
                        "single-token-ownership",
                        f"{what} at {server.name} (site {server.site!r}) for "
                        f"{key!r}, but site leader {other.name} "
                        f"(site {other.site!r}) still owns the token",
                    )

    # ----------------------------------------------------- final checks

    def final_check(self) -> int:
        """End-of-run checks that are only sound at quiesce.

        Verifies ephemeral-owner-session liveness: a live server's tree may
        not retain ephemerals of a session its hosting server knows to be
        expired — unless that session is still queued for ephemeral GC
        (WanKeeper re-issues the close until leftovers drain) — and that
        no granted token is stranded (:meth:`_check_grant_counts`).
        Returns the number of (server, session) pairs inspected.
        """
        self._check_grant_counts()
        hosts = {
            str(server.client_addr): server
            for server in self._servers
        }
        inspected = 0
        for server in self._servers:
            if not server.is_alive:
                continue
            for session_id in sorted(server.tree._ephemerals):
                inspected += 1
                host_name = session_id.rsplit("#", 1)[0]
                host = hosts.get(host_name)
                if host is None or not host.is_alive:
                    continue  # hosting server gone; nobody owns the session
                session = host.sessions.get(session_id)
                if session is None or not session.expired:
                    continue  # unknown (tracker lost in restart) or live
                pending_gc = session_id in getattr(host, "_gc_sessions", ())
                if pending_gc:
                    continue
                paths = server.tree.ephemerals_of(session_id)
                self._fail(
                    "ephemeral-liveness",
                    f"{server.name} retains ephemerals {paths} of expired "
                    f"session {session_id!r} (hosted at {host.name}) with no "
                    "close pending",
                )
        self.checks_run += inspected
        return inspected

    def _check_grant_counts(self) -> None:
        """A site leader that counts fewer grants of a key it owns than the
        hub sent it answers no recall of that key. A site count *above* the
        hub's is legal: a hub promoted by a level-2 failover may never have
        seen the old hub's last grant."""
        leaders = {
            server.site: server
            for server in self._servers
            if getattr(server, "hub_tokens", None) is not None
            and server.is_alive and server.peer.is_leader
        }
        for hub in leaders.values():
            if not hub.is_hub_site:
                continue
            for key, site in sorted(hub.hub_tokens.location.items()):
                leader = leaders.get(site)
                if leader is None or leader is hub:
                    continue
                self.checks_run += 1
                sent = hub._grant_counts.get((key, site), 0)
                seen = leader._grant_counts.get((key, site), 0)
                if seen < sent:
                    self._fail(
                        "stranded-grant",
                        f"hub leader {hub.name} sent {sent} grants of "
                        f"{key!r} to {site!r}, whose leader {leader.name} "
                        f"has seen {seen}: it takes every recall for one "
                        "that overtook its grant",
                    )


def _canonical_reply(outcome) -> Tuple[Any, ...]:
    """A zxid-free canonical form of the client-visible reply an
    :class:`ApplyOutcome` stands for (ok + value, or error code + path).

    WanKeeper replicates one logical tree through per-site ensembles, so
    ``Stat`` zxids legitimately differ across replicas; child-count and
    cversion fields can transiently differ too (children move under their
    own tokens). Everything token-ordered — version, data, ephemeral owner,
    error codes — must agree.
    """
    if outcome.ok:
        return ("ok", _canonical_value(outcome.value))
    error = outcome.error
    return ("err", error.code, error.path)


def _canonical_value(value: Any) -> Any:
    # Duck-typed Stat check: importing repro.zk.records here would close an
    # import cycle (zk.__init__ -> deployment -> invariants).
    if type(value).__name__ == "Stat" and hasattr(value, "ephemeral_owner"):
        return ("stat", value.version, value.data_length, value.ephemeral_owner)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(item) for item in value)
    return value


def attach_sentinel(
    deployment,
    trace: Optional[TraceBuffer] = None,
    tail: int = DEFAULT_TAIL,
) -> InvariantSentinel:
    """Attach a sentinel (and trace buffer) to a built deployment."""
    if trace is None:
        trace = install_trace(deployment)
    else:
        install_trace(deployment, trace)
    sentinel = InvariantSentinel(trace=trace, tail=tail)
    sentinel.adopt(deployment.servers)
    return sentinel


def maybe_attach_sentinel(deployment) -> Optional[InvariantSentinel]:
    """Attach a sentinel if ``REPRO_SENTINEL`` asks for one (builders call
    this; the benchmarks never set the variable, so their hot paths keep
    the bare one-branch disabled configuration)."""
    if not sentinel_enabled():
        return None
    return attach_sentinel(deployment)
