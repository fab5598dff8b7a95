"""The two-table at-most-once apply path, kept as a differential oracle.

Before one table did the job, every replica kept two: ``_reply_cache``
(every committed ``(session_id, cxid)``, bounded at ``REPLY_CACHE_LIMIT``,
mapped to the ``OpReply`` on the txn's origin and to ``None`` elsewhere)
decided "already committed", and ``apply_counts`` (bounded separately at
``APPLY_COUNT_LIMIT``) only counted applies for the tests. Each replica
built its own ``(session_id, cxid)`` tuples for both. ``TwoTableAtMostOnce``
restores exactly that ``_accept_write`` / ``_commit_client_txn`` over the
product servers; ``tests/test_at_most_once_reference.py`` drives seeded
twin worlds — product and reference — in lockstep and demands identical
sends, commits, counters and tables.

``NoAtMostOnce`` is the other control: a server with at-most-once switched
off, the way servers worked before the reply cache. A retry is submitted
again, nothing re-routes a write whose forward was lost, and a duplicate
commit applies again, so the sentinel's no-double-apply check must trip.
A test installs it by monkeypatching the deployment module's server class.
Test-only — nothing under ``src/`` may import this.
"""

from collections import OrderedDict

from repro.wankeeper.server import WanKeeperServer
from repro.zk.ops import CloseSessionOp, Txn
from repro.zk.protocol import OpReply
from repro.zk.server import REPLY_CACHE_LIMIT, ZkServer

#: The old separate cap on the apply-count probe.
APPLY_COUNT_LIMIT = 2 * REPLY_CACHE_LIMIT


class TwoTableAtMostOnce:
    """Mixin over a ``ZkServer``: the reply cache plus the count probe."""

    def _initial_state(self):
        return {**super()._initial_state(), "apply_counts": OrderedDict(),
                "_reply_cache": OrderedDict()}

    def snapshot(self):
        state = super().snapshot()
        # Replies are the origin's own: a learner's cache maps to None.
        state["_reply_cache"] = OrderedDict.fromkeys(self._reply_cache)
        return state

    def install(self, state):
        # The replies this server stored stay for the keys that survive.
        own = self._reply_cache
        super().install(state)
        cache = self._reply_cache
        for key in cache:
            cache[key] = own.get(key)

    def _accept_write(self, src, msg):
        key = (msg.session_id, msg.cxid)
        if key in self._reply_cache:
            cached = self._reply_cache[key]
            if cached is None:
                raise RuntimeError(f"{self.name}: {key!r} committed with "
                                   "no reply stored here; not re-submitting")
            self.replies_from_cache += 1
            self.net.send(self.client_addr, src, cached)
            return
        if key in self._pending_writes:
            self._pending_writes[key] = src
            return
        self.writes_accepted += 1
        self._pending_writes[key] = src
        if isinstance(msg.op, CloseSessionOp):
            self._closing.add(msg.op.session_id)
        txn = Txn(
            session_id=msg.session_id,
            cxid=msg.cxid,
            origin=self.client_addr,
            op=msg.op,
        )
        self._inflight_txns[key] = (txn, self.env.now)
        self._route_write(txn)

    def _commit_client_txn(self, zxid, txn):
        key = (txn.session_id, txn.cxid)
        if self._inflight_txns:
            self._inflight_txns.pop(key, None)
        if key in self._reply_cache:
            self.duplicate_commits_suppressed += 1
            if self._trace is not None:
                self._trace.emit(self.env.now, "zk", "dup-suppressed",
                                 self.name,
                                 {"session": txn.session_id,
                                  "cxid": txn.cxid})
            client = self._pending_writes.pop(key, None)
            if client is not None:
                self.net.send(self.client_addr, client, self._reply_cache[key])
            return None
        if isinstance(txn.op, CloseSessionOp):
            self._closing.discard(txn.op.session_id)
            if self.sessions.get(txn.op.session_id) is not None:
                self.sessions.mark_expired(txn.op.session_id)
                self.watches.drop_session(txn.op.session_id)
                if self._trace is not None:
                    self._trace.emit(self.env.now, "zk", "session-close",
                                     self.name,
                                     {"session": txn.op.session_id})
        self.commits_applied += 1
        outcome = self.tree.apply(txn.op, zxid, txn.session_id)
        counts = self.apply_counts
        counts[key] = counts.get(key, 0) + 1
        if len(counts) > APPLY_COUNT_LIMIT:
            counts.popitem(last=False)
        if self._trace is not None:
            self._trace.emit(self.env.now, "zk", "apply", self.name,
                             {"session": txn.session_id, "cxid": txn.cxid,
                              "op": type(txn.op).__name__,
                              "ok": outcome.ok})
        if outcome.events and self.watches.has_watches:
            self._fire_watches(outcome)
        if self.sentinel is not None:
            self.sentinel.on_apply(self, txn, outcome)
        origin = txn.origin
        mine = self.client_addr
        if origin is mine or origin == mine:
            if outcome.ok:
                reply = OpReply(txn.session_id, txn.cxid, True, outcome.value)
            else:
                error = outcome.error
                reply = OpReply(txn.session_id, txn.cxid, False, None,
                                error.code, error.path)
        else:
            reply = None
        self._reply_cache[key] = reply
        while len(self._reply_cache) > REPLY_CACHE_LIMIT:
            self._reply_cache.popitem(last=False)
        if reply is not None and self._pending_writes:
            client = self._pending_writes.pop(key, None)
            if client is not None:
                self.net.send(mine, client, reply)
        return outcome


class ReferenceZkServer(TwoTableAtMostOnce, ZkServer):
    pass


class ReferenceWanKeeperServer(TwoTableAtMostOnce, WanKeeperServer):
    pass


class NoAtMostOnce:
    """Mixin over a ``ZkServer``: at-most-once switched off."""

    def _accept_write(self, src, msg):
        self.writes_accepted += 1
        if isinstance(msg.op, CloseSessionOp):
            self._closing.add(msg.op.session_id)
        txn = Txn(
            session_id=msg.session_id,
            cxid=msg.cxid,
            origin=self.client_addr,
            op=msg.op,
        )
        self._pending_writes[txn.key] = src
        self._route_write(txn)

    def _commit_client_txn(self, zxid, txn):
        # Forget that the request committed, so it applies again.
        if self.apply_counts.pop(txn.key, None) is not None:
            self._apply_order.remove(txn.key)
        return super()._commit_client_txn(zxid, txn)

    def _retry_inflight_writes(self):
        pass


class NoAtMostOnceZkServer(NoAtMostOnce, ZkServer):
    pass


class NoAtMostOnceWanKeeperServer(NoAtMostOnce, WanKeeperServer):
    pass
