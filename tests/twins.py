"""Twin seeded worlds: the one harness of the stack-level differential
oracles.

A differential oracle builds the same seeded world twice: once on the
product, and once with one piece swapped for the reference it replaced
(a substrate peer registered under another name, or a server class
patched into the deployment module). Nothing seen from outside may tell
the two apart. Three oracles stand on this module:
``tests/test_zab_commit_path.py`` (the Zab commit path),
``tests/test_state_transfer_reference.py`` (kept-state restart, the log
window and SNAP) and ``tests/test_at_most_once_reference.py`` (the one
at-most-once table). Each keeps only its case table, its send
normalizer, its end-state assertions and its mutants.

A :class:`Twin` is one world: a stack of :data:`STACKS` on a fresh
seeded network, started and stable, with what the twins compare
recorded from the first message on. Every record starts with its sim
time:

* ``sent``: each message sent, ``(now, src, dst, normalize(body))``;
  payloads and addresses are kept as they are and compared by value (a
  handler never writes to a message it was given);
* ``history``: each client op, ``(now, client, write, key, result)``;
* ``logs[server]``: each commit the server's peer delivers,
  ``(now, "commit", position, payload)``, and each client txn the
  server applies, ``(now, "apply", position, key, ok)``, where ``ok`` is
  ``None`` if the at-most-once table suppressed it. A position is
  ``("", (epoch, counter))`` on Zab and ``(object, slot)`` on WPaxos;
* ``installs[server]``: each state the server installs from a SNAP or a
  ``ResyncSnap``, ``(now, domain, low, high)``: it holds every position
  of ``domain`` in ``(low, high]``.

:func:`run_twins` plays ``(offset ms, action)`` steps on both worlds and
runs them in lockstep between steps: slice by slice, comparing the named
streams, any other observation, and the kernel's event sequence numbers
after every slice. :func:`first_divergence` names the stream, the index
and the sim time of the first record on which two streams differ.
"""

import functools
import itertools
import posixpath
import random
from dataclasses import dataclass
from typing import Callable

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.wankeeper import build_wankeeper_deployment
from repro.wpaxos.peer import WPaxosPeer
from repro.zk import ConnectionLossError, SessionExpiredError, build_zk_deployment

from tests.support import fresh_world

__all__ = [
    "AMBIENT", "SITES", "SLICE_MS", "STACKS", "Twin", "first_divergence",
    "run_twins",
]

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)
SLICE_MS = 250.0


@dataclass(frozen=True)
class Stack:
    """How to build one stack, on its product substrate unless told
    otherwise, and the site whose leader :meth:`Twin.crash_leader`
    takes down."""

    build: Callable
    substrate: str
    leader_site: str


def _zk(voting_sites):
    def build(env, net, topo, substrate):
        return build_zk_deployment(env, net, topo, leader_site=VIRGINIA,
                                   voting_sites=voting_sites, substrate=substrate)
    return build


STACKS = {
    # California's site leader: not the hub's.
    "wk-zab": Stack(build_wankeeper_deployment, "zab", CALIFORNIA),
    # Election puts the one leader in the leader site.
    "zk-zab": Stack(_zk(SITES), "zab", VIRGINIA),
    # One voter a site; every live voter leads.
    "zk-wpaxos": Stack(_zk(SITES), "wpaxos", VIRGINIA),
    # Three voters a site: a zone keeps its majority through one crash.
    "zk-wpaxos-grid": Stack(
        _zk(tuple(site for site in SITES for _ in range(3))), "wpaxos", VIRGINIA
    ),
}


def _positions(peer):
    """How ``peer`` names what it delivers, and its applied points."""
    if isinstance(peer, WPaxosPeer):
        return (lambda zxid, txn: (peer._object_of(txn), zxid.counter),
                lambda: {obj: slot - 1 for obj, slot in peer._applied.items()})
    return (lambda zxid, txn: ("", (zxid.epoch, zxid.counter)),
            lambda: {"": (peer._last_applied.epoch, peer._last_applied.counter)})


class Twin:
    """One seeded deployment, its clients, and everything twins compare."""

    def __init__(self, stack, seed, substrate=None, *, normalize, jitter):
        spec = STACKS[stack]
        self.stack, self.seed, self.normalize = stack, seed, normalize
        self.leader_site = spec.leader_site
        self.env, topo, self.net = fresh_world(seed=seed, jitter=jitter)
        self.deployment = spec.build(self.env, self.net, topo,
                                     substrate=substrate or spec.substrate)
        self.servers = self.deployment.servers
        self.sent, self.history, self.procs = [], [], []
        self.logs = {server.name: [] for server in self.servers}
        self.installs = {server.name: [] for server in self.servers}
        self.failures = self.crashes = 0
        self.streams = {"sent": self.sent, "history": self.history}
        self.streams.update(
            (f"logs[{name}]", log) for name, log in self.logs.items()
        )
        self.net.tap(self._record_send)
        for server in self.servers:
            self._record(server)
        self.deployment.start()
        self.deployment.stabilize()

    def _record_send(self, envelope):
        self.sent.append((self.env.now, envelope.src, envelope.dst,
                          self.normalize(envelope.body)))

    def _record(self, server):
        """Wrap the server's commit and apply entry points and its peer's
        install hook, each recording into the server's streams."""
        env, peer = self.env, server.peer
        log, installs = self.logs[server.name], self.installs[server.name]
        position, applied_points = _positions(peer)
        delivered = applied_points()  # domain -> the newest position delivered
        commit_client_txn, on_commit = server._commit_client_txn, peer.on_commit

        @functools.wraps(commit_client_txn)
        def applied(zxid, txn):
            outcome = commit_client_txn(zxid, txn)
            log.append((env.now, "apply", position(zxid, txn), txn.key,
                        None if outcome is None else outcome.ok))
            return outcome

        if on_commit == commit_client_txn:
            # A ZkServer's peer hands its commits straight in: through the
            # server's entry point as it stands, which a leg may wrap too.
            @functools.wraps(commit_client_txn)
            def on_commit(zxid, txn):
                return server._commit_client_txn(zxid, txn)

        @functools.wraps(on_commit)
        def committed(zxid, payload):
            where = position(zxid, payload)
            log.append((env.now, "commit", where, payload))
            delivered[where[0]] = where[1]
            on_commit(zxid, payload)

        install_state = peer.install_state

        @functools.wraps(install_state)
        def installed(state):
            # The peer has moved its applied points already.
            for domain, high in applied_points().items():
                low = delivered.get(domain, -1)  # -1: before an object's slot 0
                if high != low:
                    installs.append((env.now, domain, low, high))
                    delivered[domain] = high
            install_state(state)

        server._commit_client_txn = applied
        peer.on_commit = committed
        peer.install_state = installed

    # -- the clients ----------------------------------------------------------

    def start_clients(self, sites, *, keys, ops, write_share, pace, timeout_ms,
                      homes=None):
        """One client actor per entry of ``sites``, bound to ``homes[site]``
        if given. The first creates the keys' parent and the keys while the
        others wait 1.5 s, and on until every live replica holds the keys
        (a read is served where the client is); then each runs ``ops``
        retried ops on random ``keys``, a write with probability
        ``write_share``, paced by a uniform draw from ``pace`` (ms). A lost connection or an expired
        session is recorded as the op's result (after an expiry the client
        reconnects); any other error fails the client's process."""
        self.procs = [
            self.env.process(self._client(
                index, site, random.Random(self.seed * 100 + index), keys, ops,
                write_share, pace, timeout_ms, homes,
            ))
            for index, site in enumerate(sites)
        ]

    def _connect(self, site, timeout_ms, homes):
        client = self.deployment.client(site, session_timeout_ms=30000.0,
                                        request_timeout_ms=timeout_ms)
        if homes is not None:
            client.server_addr = homes[site].client_addr
        return client

    def _client(self, index, site, rng, keys, ops, write_share, pace,
                timeout_ms, homes):
        env = self.env
        client = self._connect(site, timeout_ms, homes)
        yield client.connect_retrying(max_retries=10)
        if index == 0:
            for key in (posixpath.dirname(keys[0]),) + tuple(keys):
                yield client.create_retrying(key, b"", max_retries=10)
        else:
            yield env.timeout(1500.0)
            while not all(server.tree.exists(key) for server in self.servers
                          if server.is_alive for key in keys):
                yield env.timeout(100.0)  # under loss the creates take longer
        for n in range(ops):
            key = rng.choice(keys)
            write = rng.random() < write_share
            try:
                if write:
                    stat = yield client.set_data_retrying(
                        key, f"{site}-{n}".encode(), max_retries=10
                    )
                    result = stat.version
                else:
                    result, _stat = yield client.get_data_retrying(
                        key, max_retries=10
                    )
            except (ConnectionLossError, SessionExpiredError) as exc:
                result = type(exc).__name__
                self.failures += 1
            self.history.append((env.now, index, write, key, result))
            if result == SessionExpiredError.__name__:
                client = self._connect(site, timeout_ms, homes)
                yield client.connect_retrying(max_retries=10)
            yield env.timeout(rng.uniform(*pace))

    # -- the fault steps ------------------------------------------------------

    def lossy(self):
        """2 % loss and duplication on every WAN link."""
        for a, b in itertools.combinations(SITES, 2):
            self.net.degrade(a, b, AMBIENT)

    def lossy_everywhere(self):
        """The same inside each site too: a WanKeeper ensemble never
        leaves one."""
        for a, b in itertools.combinations_with_replacement(SITES, 2):
            self.net.degrade(a, b, AMBIENT)

    def heal(self):
        self.net.restore_all()

    def crash_leader(self):
        self.crash(self.deployment.site_leader(self.leader_site))

    def crash(self, server):
        self.crashed = server
        self.crashes += 1
        server.crash()

    def restart_crashed(self):
        self.crashed.restart()


def first_divergence(stream, ours, theirs, start=0):
    """The first index from ``start`` on where the product's records
    (``ours``) and the reference's differ, as a message that names the
    stream, the index and the record's sim time; ``None`` if they agree."""
    for index in range(start, max(len(ours), len(theirs))):
        a = ours[index] if index < len(ours) else "<missing>"
        b = theirs[index] if index < len(theirs) else "<missing>"
        if a != b:
            now = (a if index < len(ours) else b)[0]
            return (f"{stream}[{index}] at t={now} ms:\n"
                    f"  product   {a!r}\n  reference {b!r}")
    return None


def run_twins(product, reference, steps, until, streams, same=(),
              crash_events=0):
    """Play each ``(offset, action)`` step on both worlds, ``action(world)``
    at ``offset`` ms after now, and run on to ``until`` ms after now, one
    slice of :data:`SLICE_MS` at a time. After each slice the named
    streams must agree from where the last slice left them, so must
    ``observe(world)`` for each ``observe`` in ``same``, and the kernels
    must have run as many events, less ``crash_events`` the reference
    spends on each crash beyond the product."""
    start = product.env.now
    assert reference.env.now == start
    compared = dict.fromkeys(streams, 0)
    for offset, action in [*steps, (until, None)]:
        while product.env.now < start + offset:
            stop = min(start + offset, product.env.now + SLICE_MS)
            product.env.run(until=stop)
            reference.env.run(until=stop)
            for name in streams:
                ours = product.streams[name]
                found = first_divergence(name, ours, reference.streams[name],
                                         compared[name])
                assert found is None, found
                compared[name] = len(ours)
            for observe in same:
                assert observe(product) == observe(reference), (
                    f"{observe.__name__} at t={stop} ms"
                )
            extra = reference.env._seq - product.env._seq
            assert extra == crash_events * product.crashes, (
                f"kernel events at t={stop} ms: the reference ran {extra} more"
            )
        if action is not None:
            for world in (product, reference):
                action(world)
