"""A WPaxos replica keeps its state across a restart and a window of its
chosen log, not its history.

A restart keeps the applied point of every object and the state machine
above them, and resumes there. After each apply the chosen log keeps the
entries of the last ``DIFF_WINDOW`` applies, plus each object's newest
applied entry; a requester below that window takes a sender's state
(``ResyncSnap``) if the sender is at or above it on every object. These
tests pin each piece on a bare ensemble of nine voters, three a zone,
whose state machine is the list of tags each object applied; the
hand-made mutants below are each caught by one of them.
``tests/test_state_transfer_reference.py`` holds the whole thing to the
replay from zero it replaced, and ``tests/test_replica_snapshot.py``
bounds it in a soak.
"""

import itertools
import random

import pytest

from repro.invariants import InvariantSentinel, InvariantViolation
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.wpaxos import WPaxosPeer
from repro.wpaxos.messages import Accept, Accepted, ResyncRsp, ResyncSnap
from repro.zab import EnsembleConfig
from repro.substrate import peer as substrate_peer
from repro.zk import ConnectionLossError, SessionExpiredError, ZkError

from tests.support import fresh_world, run_app, wpaxos_grid

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)


class PathTxn:
    """Minimal transaction on one object (znode path)."""

    __slots__ = ("op", "tag")

    class _Op:
        __slots__ = ("path",)

        def __init__(self, path):
            self.path = path

    def __init__(self, path, tag):
        self.op = PathTxn._Op(path)
        self.tag = tag

    def __repr__(self):
        return f"PathTxn({self.op.path}, {self.tag})"


class Ensemble:
    """Nine voters, three a zone, under the invariant sentinel. A peer's
    state machine is ``state[name]``: object -> tags in apply order."""

    def __init__(self, peer_class=WPaxosPeer):
        env = Environment()
        topo = wan_topology()
        self.env = env
        self.net = Network(env, topo, rng=seeded_rng(11, "net"))
        voters = [topo.site(site).address(f"v{i}")
                  for i, site in enumerate(s for s in SITES for _ in range(3))]
        config = EnsembleConfig(voters=voters)
        self.sentinel = InvariantSentinel()
        self.peers = [peer_class(env, self.net, addr, config, name=addr.name)
                      for addr in voters]
        self.state = {}
        for peer in self.peers:
            self._wire(peer)
            peer.start()
        self.run(2000.0)

    def _wire(self, peer):
        state = self.state[peer.name] = {}

        def on_commit(zxid, txn):
            state.setdefault(txn.op.path, []).append(txn.tag)

        def install_state(snapshot):
            state.clear()
            state.update(snapshot)

        peer.on_commit = on_commit
        peer.snapshot_state = lambda: {k: list(v) for k, v in state.items()}
        peer.install_state = install_state
        peer.sentinel = self.sentinel

    def run(self, ms):
        self.env.run(until=self.env.now + ms)

    def write(self, peer, obj, count, tag):
        for i in range(count):
            peer.submit(PathTxn(obj, f"{tag}{i}"))
            self.run(200.0)


def _window_is_well_formed(peer):
    """Per object: every slot from the base up to the applied point, the
    newest applied one included, and nothing else once quiet."""
    for obj, chosen in peer._chosen.items():
        base, applied = peer._held_from(obj), peer._applied[obj]
        assert sorted(chosen) == list(range(base, applied)), (peer.name, obj)
        if applied:
            assert applied - 1 in chosen, (peer.name, obj)


# -- restart ------------------------------------------------------------------


def test_a_restart_keeps_the_state_and_resumes_where_it_stopped():
    ensemble = Ensemble()
    owner, victim = ensemble.peers[0], ensemble.peers[8]
    ensemble.write(owner, "/a", 5, "before")
    applied = dict(victim._applied)
    victim.crash()
    ensemble.write(owner, "/a", 5, "after")
    victim.restart()
    assert not hasattr(victim, "on_reset")  # no replay-from-zero hook
    assert victim._applied == applied
    ensemble.run(3000.0)
    expected = [f"before{i}" for i in range(5)] + [f"after{i}" for i in range(5)]
    assert ensemble.state[victim.name]["/a"] == expected
    assert ensemble.state[victim.name] == ensemble.state[owner.name]
    assert victim.snapshots_installed == 0  # the windows still reach it


# -- the window ----------------------------------------------------------------


def test_the_chosen_log_keeps_a_window_and_each_objects_newest(monkeypatch):
    monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 4)
    ensemble = Ensemble()
    owner = ensemble.peers[0]
    for obj, count in (("/a", 12), ("/b", 12), ("/c", 2)):
        ensemble.write(owner, obj, count, obj)
    ensemble.run(2000.0)
    for peer in ensemble.peers:
        assert peer._applied == {"/a": 12, "/b": 12, "/c": 2}
        assert len(peer._window) <= 8  # compacted in chunks at twice it
        _window_is_well_formed(peer)
        # /a left the window; its newest entry stays.
        assert list(peer._chosen["/a"]) == [11]
        assert peer._base["/a"] == 12 and peer._held_from("/a") == 11
    assert len({repr(s) for s in ensemble.state.values()}) == 1


def test_a_voter_below_every_window_rejoins_by_snapshot(monkeypatch):
    monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 4)
    ensemble = Ensemble()
    owner, victim = ensemble.peers[0], ensemble.peers[8]
    ensemble.write(owner, "/a", 3, "before")
    victim.crash()
    ensemble.write(owner, "/a", 12, "during")
    ensemble.write(owner, "/b", 6, "during")
    sent = []
    ensemble.net.tap(lambda envelope: sent.append(envelope.body))
    victim.restart()
    ensemble.run(3000.0)
    # Eight senders ship their state; the first one installs, and the rest
    # hold nothing the learner lacks.
    assert sum(isinstance(body, ResyncSnap) for body in sent) == 8
    assert victim.snapshots_installed == 1
    assert ensemble.state[victim.name] == ensemble.state[owner.name]
    assert victim._applied == owner._applied
    _window_is_well_formed(victim)
    for obj in owner._applied:  # and it holds the sender's window
        assert victim._held_from(obj) == owner._held_from(obj)


# -- who installs what -----------------------------------------------------------


class InstallsBlindly(WPaxosPeer):
    """Mutant: installs any snapshot ahead of it somewhere."""

    def _on_resync_snap(self, msg):
        mine = self._applied
        ahead = [obj for obj, slot in msg.applied if slot > mine.get(obj, 0)]
        if ahead:
            self._install(msg, ahead)


def _refuses_a_sender_behind_it(peer_class):
    ensemble = Ensemble(peer_class)
    owner, learner = ensemble.peers[0], ensemble.peers[8]
    ensemble.write(owner, "/a", 2, "a")
    ensemble.write(owner, "/b", 2, "b")
    state = ensemble.state[learner.name]
    before = {obj: list(tags) for obj, tags in state.items()}
    # Ahead on /a, behind on /b: its state would undo our /b.
    behind = ResyncSnap({"/a": ["a0", "a1", "x", "y"], "/b": ["b0"]},
                        (("/a", 4), ("/b", 1)), ())
    learner._on_resync_snap(behind)
    assert learner.snapshots_installed == 0
    assert learner._applied == {"/a": 2, "/b": 2}
    assert state == before
    assert list(learner._gapped) == ["/a"]  # it asks again on its tick


def test_a_sender_behind_us_somewhere_is_not_installed():
    _refuses_a_sender_behind_it(WPaxosPeer)


def test_the_dominance_check_is_what_refuses_it():
    with pytest.raises(AssertionError):
        _refuses_a_sender_behind_it(InstallsBlindly)


# -- a stealer below the window -----------------------------------------------


class DropsTheNewest(WPaxosPeer):
    """Mutant: compaction drops an object's newest applied entry too."""

    def _compact(self, count):
        window, base = self._window, self._base
        for _ in range(count):
            obj = window.popleft()
            slot = base.get(obj, 0)
            base[obj] = slot + 1
            del self._chosen[obj][slot]


def _stealer_below_every_window(peer_class, monkeypatch):
    """A voter rejoins below every window and, before its catch-up lands,
    steals an object whose entries all left the promisers' windows."""
    monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 4)
    ensemble = Ensemble(peer_class)
    owner, thief = ensemble.peers[0], ensemble.peers[8]
    ensemble.write(owner, "/a", 2, "before")
    thief.crash()
    ensemble.write(owner, "/a", 6, "during")
    ensemble.write(owner, "/b", 10, "during")
    for kind in (ResyncRsp, ResyncSnap):
        # The catch-up its restart asked for is lost; the one it asks for
        # once it owns the object (and sees the hole) is not.
        def catch_up(msg, handler=thief._handlers[kind]):
            if "/a" in thief._owned:
                handler(msg)

        thief._handlers[kind] = catch_up
    thief.restart()
    thief.submit(PathTxn("/a", "stolen"))
    ensemble.run(3000.0)
    # It proposed above every chosen slot, then filled the hole below.
    assert thief._next_slot["/a"] == 9
    assert thief.snapshots_installed == 1
    tags = ensemble.state[owner.name]["/a"]
    assert tags[-1] == "stolen" and len(tags) == 9
    assert len({repr(s) for s in ensemble.state.values()}) == 1


def test_a_stealer_below_every_window_never_proposes_in_a_chosen_slot(monkeypatch):
    _stealer_below_every_window(WPaxosPeer, monkeypatch)


def test_keeping_each_objects_newest_entry_is_what_keeps_it_out(monkeypatch):
    with pytest.raises((AssertionError, InvariantViolation)):
        _stealer_below_every_window(DropsTheNewest, monkeypatch)


# -- a chosen slot leaves _accepted --------------------------------------------


def test_a_late_accept_of_a_chosen_slot_is_acknowledged_not_recorded():
    ensemble = Ensemble()
    owner, mate = ensemble.peers[0], ensemble.peers[1]
    ensemble.write(owner, "/a", 3, "a")
    sent = []
    ensemble.net.tap(lambda envelope: sent.append(envelope.body))
    ballot = owner._owned["/a"]
    mate._on_accept(Accept("/a", ballot, 1, PathTxn("/a", "a1"), owner.addr))
    assert not mate._accepted.get("/a")
    assert [(type(b), b.slot) for b in sent] == [(Accepted, 1)]


def test_a_slot_chosen_through_a_resync_leaves_accepted():
    ensemble = Ensemble()
    owner, mate = ensemble.peers[0], ensemble.peers[1]
    ensemble.write(owner, "/a", 1, "a")
    ballot = owner._owned["/a"]
    txn = PathTxn("/a", "a1")
    mate._on_accept(Accept("/a", ballot, 1, txn, owner.addr))
    assert list(mate._accepted["/a"]) == [1]
    mate._on_resync_rsp(ResyncRsp((("/a", 1, ballot, txn),)))
    assert mate._applied["/a"] == 2
    assert not mate._accepted["/a"]


def test_no_replica_keeps_a_chosen_slot_in_accepted_under_loss():
    """zk x wpaxos, three voters a zone, 5 % loss and duplication: late
    and duplicated Accepts, resyncs and steals all reach a chosen slot
    (the parent kept 3 such entries at the end of this run)."""
    env, topo, net = fresh_world(seed=1, jitter=0.1)
    deployment = wpaxos_grid(env, net, topo)
    keys = [f"/l{i}" for i in range(4)]

    def client(index, site):
        rng = random.Random(index)
        zk = deployment.client(site, session_timeout_ms=30000.0,
                               request_timeout_ms=500.0)
        yield zk.connect_retrying(max_retries=10)
        for n in range(80):
            try:
                yield zk.set_data_retrying(rng.choice(keys), b"%d" % n,
                                           max_retries=10)
            except (ConnectionLossError, SessionExpiredError, ZkError):
                pass
            yield env.timeout(rng.uniform(5.0, 60.0))

    def app():
        setup = deployment.client(VIRGINIA)
        yield setup.connect()
        for key in keys:
            yield setup.create(key, b"")
        for a, b in itertools.combinations(SITES, 2):
            net.degrade(a, b, LinkProfile(loss=0.05, duplicate=0.05))
        procs = [env.process(client(i, site))
                 for i, site in enumerate(SITES * 2)]
        for proc in procs:
            yield proc
        net.restore_all()
        yield env.timeout(5000.0)
        return True

    run_app(env, app())
    lingering = {
        server.name: [(obj, slot)
                      for obj, slots in server.peer._accepted.items()
                      for slot in slots
                      if slot < server.peer._applied[obj]
                      or slot in server.peer._chosen.get(obj, ())]
        for server in deployment.servers
    }
    assert lingering == {server.name: [] for server in deployment.servers}
    assert sum(s.peer.commits_delivered for s in deployment.servers) > 500


# -- a finding, pinned ---------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a voter that misses the Learn of an object's "
    "last chosen slot never repairs it; only a later Learn on the object "
    "reveals the hole",
)
def test_a_voter_that_misses_an_objects_last_learn_converges():
    ensemble = Ensemble()
    owner = ensemble.peers[0]
    ensemble.write(owner, "/g", 3, "g")
    ensemble.net.partition_one_way(VIRGINIA, FRANKFURT)  # the final Learn
    ensemble.write(owner, "/g", 1, "last")
    ensemble.net.heal_one_way(VIRGINIA, FRANKFURT)
    ensemble.run(30000.0)  # quiesce
    assert len({repr(s) for s in ensemble.state.values()}) == 1
