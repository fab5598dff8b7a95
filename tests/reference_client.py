"""The pre-PR-15 ``ZkClient`` request path, kept as a differential oracle.

``ReferenceClient`` is the product client with its request path replaced
by the one it had before: every ``*_retrying`` call runs a kernel Process
(`_retry_driver`) that yields an inner per-attempt Event, and every
attempt parks its own ``call_in(request_timeout_ms)`` guard on the kernel
heap. Slow, but simple enough to read as the specification:
``tests/test_client_request_path.py`` drives it and the product client
with the same schedules and demands identical client-visible behaviour.
Test-only — nothing under ``src/`` may import this.
"""

from repro.sim.kernel import Event, Interrupt
from repro.zk.client import ZkClient
from repro.zk.errors import ConnectionLossError, SessionExpiredError
from repro.zk.ops import (
    CloseSessionOp,
    CreateOp,
    DeleteOp,
    ExistsOp,
    GetChildrenOp,
    GetDataOp,
    MultiOp,
    SetDataOp,
    SyncOp,
)
from repro.zk.protocol import ConnectRequest, OpRequest


class ReferenceClient(ZkClient):
    # -- plain calls: one attempt, no Process ------------------------------

    def connect(self):
        event = Event(self.env)
        if self._connect_event is not None and not self._connect_event.triggered:
            raise RuntimeError(f"{self.name}: connect already in flight")
        self._connect_event = event
        self.net.send(
            self.addr,
            self.server_addr,
            ConnectRequest(self.addr, self.session_timeout_ms),
        )
        self._watch_timeout(event, what="connect")
        return event

    def create(self, path, data=b"", ephemeral=False, sequential=False):
        return self._submit(CreateOp(path, data, ephemeral, sequential))

    def delete(self, path, version=-1):
        return self._submit(DeleteOp(path, version))

    def set_data(self, path, data, version=-1):
        return self._submit(SetDataOp(path, data, version))

    def get_data(self, path, watch=False):
        return self._submit(GetDataOp(path, watch))

    def exists(self, path, watch=False):
        return self._submit(ExistsOp(path, watch))

    def get_children(self, path, watch=False):
        return self._submit(GetChildrenOp(path, watch))

    def multi(self, ops):
        return self._submit(MultiOp(tuple(ops)))

    def sync(self, path="/"):
        return self._submit(SyncOp(path))

    def close(self):
        if self.session_id is None:
            raise RuntimeError(f"{self.name}: not connected")
        return self._submit(CloseSessionOp(self.session_id))

    # -- retrying calls: a driver Process per logical op ---------------------

    def submit_retrying(self, op, max_retries=6, backoff_ms=250.0):
        cxid = self._next_cxid()
        result = Event(self.env)
        self.env.process(
            self._retry_driver(op, cxid, result, max_retries, backoff_ms),
            name=f"{self.name}.retry",
        )
        return result

    def _retry_driver(self, op, cxid, result, max_retries, backoff_ms):
        delay = backoff_ms
        attempt = 0
        while True:
            try:
                value = yield self._submit_with_cxid(op, cxid)
            except ConnectionLossError as exc:
                attempt += 1
                if attempt > max_retries:
                    if not result.triggered:
                        result.fail(exc)
                    return
                self.retries_performed += 1
                try:
                    yield self.env.timeout(delay)
                except Interrupt:
                    return
                delay = min(delay * 2.0, 4000.0)
                if self.expired or self.session_id is None:
                    if not result.triggered:
                        result.fail(SessionExpiredError(self.name))
                    return
                continue
            except Exception as exc:  # definitive replicated outcome
                if not result.triggered:
                    result.fail(exc)
                return
            if not result.triggered:
                result.succeed(value)
            return

    def connect_retrying(self, max_retries=6, backoff_ms=250.0):
        result = Event(self.env)

        def driver():
            delay = backoff_ms
            attempt = 0
            while True:
                try:
                    session_id = yield self.connect()
                except ConnectionLossError as exc:
                    attempt += 1
                    if attempt > max_retries:
                        if not result.triggered:
                            result.fail(exc)
                        return
                    self.retries_performed += 1
                    try:
                        yield self.env.timeout(delay)
                    except Interrupt:
                        return
                    delay = min(delay * 2.0, 4000.0)
                    continue
                if not result.triggered:
                    result.succeed(session_id)
                return

        self.env.process(driver(), name=f"{self.name}.connect-retry")
        return result

    # -- guts -----------------------------------------------------------------

    def _next_cxid(self):
        if self.expired:
            raise SessionExpiredError(self.name)
        if self.session_id is None:
            raise RuntimeError(f"{self.name}: not connected")
        self._cxid += 1
        return self._cxid

    def _submit(self, op):
        return self._submit_with_cxid(op, self._next_cxid())

    def _submit_with_cxid(self, op, cxid):
        event = Event(self.env)
        self._pending[cxid] = event
        self.net.send(
            self.addr,
            self.server_addr,
            OpRequest(self.session_id, cxid, op),
        )
        self._watch_timeout(event, cxid=cxid, what=type(op).__name__)
        return event

    def _watch_timeout(self, event, cxid=None, what=""):
        # One un-cancellable heap entry per attempt; the callback detects
        # staleness itself.
        self.env.call_in(
            self.request_timeout_ms, self._expire_request, (event, cxid, what)
        )

    def _expire_request(self, args):
        event, cxid, what = args
        if event.triggered:
            return
        if cxid is not None:
            self._pending.pop(cxid, None)
        self.ops_failed += 1
        event.fail(
            ConnectionLossError(
                f"{self.name}: {what} timed out after "
                f"{self.request_timeout_ms} ms"
            )
        )
