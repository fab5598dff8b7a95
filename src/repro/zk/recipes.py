"""Coordination recipes built on the client API.

The two ZooKeeper lock recipes the evaluation runs: the exclusive lock
of fig8 (:class:`DistributedLock`) and the fair lock of the bulk-token
ablation (:class:`FairLock`), whose sequential waiter znodes exercise
WanKeeper's bulk-token handling (§III-B).

All methods are generator functions: ``yield from`` / ``yield
env.process(...)`` them inside simulation processes.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import AnyOf, Environment
from repro.zk.client import ZkClient
from repro.zk.errors import NodeExistsError, NoNodeError
from repro.zk.paths import basename

__all__ = ["DistributedLock", "FairLock"]


class DistributedLock:
    """Simple exclusive lock: one ephemeral znode, watch-based waiting."""

    def __init__(self, env: Environment, client: ZkClient, path: str):
        self.env = env
        self.client = client
        self.path = path
        self.held = False

    def acquire(self, poll_timeout_ms: float = 5000.0):
        """Generator: block until the lock is held."""
        while True:
            try:
                yield self.client.create(self.path, b"", ephemeral=True)
                self.held = True
                return
            except NodeExistsError:
                pass
            stat = yield self.client.exists(self.path, watch=True)
            if stat is None:
                continue  # deleted between create and exists; retry
            # Wait for the delete notification (or timeout and re-check,
            # in case the watch was consumed by an unrelated change).
            yield AnyOf(
                self.env,
                [
                    self.client.wait_watch(self.path),
                    self.env.timeout(poll_timeout_ms),
                ],
            )

    def release(self):
        """Generator: release the lock."""
        if not self.held:
            raise RuntimeError("lock not held")
        self.held = False
        try:
            yield self.client.delete(self.path)
        except NoNodeError:
            pass  # session expiry already removed it


class FairLock:
    """ZooKeeper's fair-lock recipe: ephemeral *sequential* waiter znodes.

    Each contender creates ``<root>/waiter-NNNNNNNNNN`` and holds the lock
    when its znode has the smallest sequence number; otherwise it watches
    its predecessor. Sequential siblings share one WanKeeper bulk token
    (§III-B), so the whole queue migrates between sites as a unit.
    """

    def __init__(self, env: Environment, client: ZkClient, root: str):
        self.env = env
        self.client = client
        self.root = root
        self.my_node: Optional[str] = None

    def acquire(self, poll_timeout_ms: float = 5000.0):
        """Generator: block until this contender holds the lock."""
        try:
            yield self.client.create(self.root, b"")
        except NodeExistsError:
            pass
        self.my_node = yield self.client.create(
            f"{self.root}/waiter-", b"", ephemeral=True, sequential=True
        )
        my_name = basename(self.my_node)
        while True:
            children = yield self.client.get_children(self.root)
            waiters = sorted(c for c in children if c.startswith("waiter-"))
            if not waiters or waiters[0] == my_name:
                return
            my_index = waiters.index(my_name)
            predecessor = f"{self.root}/{waiters[my_index - 1]}"
            stat = yield self.client.exists(predecessor, watch=True)
            if stat is None:
                continue  # predecessor vanished; re-evaluate
            yield AnyOf(
                self.env,
                [
                    self.client.wait_watch(predecessor),
                    self.env.timeout(poll_timeout_ms),
                ],
            )

    def release(self):
        """Generator: give up the lock (or leave the queue)."""
        if self.my_node is None:
            raise RuntimeError("lock not held")
        node, self.my_node = self.my_node, None
        try:
            yield self.client.delete(node)
        except NoNodeError:
            pass
