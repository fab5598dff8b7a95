"""The hub that serializes a write its origin site already committed.

Before the hub dropped a queued copy on absorbing the site's own commit of
the same write, ``HubBroker.admit`` checked ``_seen_wan_ids`` only when a
submit arrived. A copy queued before the site admitted the write locally
was serialized later anyway, with a grant the origin site dropped together
with the duplicate (``RelayNoopOp``). ``NoAbsorbWanKeeperServer`` restores
that behaviour: it is the control for ``tests/test_stranded_token.py``.
A test installs it by monkeypatching the deployment module's server class.
Test-only — nothing under ``src/`` may import this.
"""

from repro.wankeeper.hubqueue import HubBroker
from repro.wankeeper.server import WanKeeperServer


class NoAbsorbHubBroker(HubBroker):
    """Keeps a queued copy whose write the hub has already committed."""

    def absorbed(self, wan_id):
        pass


class NoAbsorbWanKeeperServer(WanKeeperServer):
    """WanKeeperServer hosting the broker above."""

    def _reset_wan_leader_state(self):
        super()._reset_wan_leader_state()
        self._hub = NoAbsorbHubBroker(self)
        self._wan_handlers = self._wan_handler_table()
