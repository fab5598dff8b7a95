"""What the WPaxos commit path costs in Python calls.

One write through an object's owner in the 3×3 zk×wpaxos grid runs
Accept → Accepted → choose → one Learn fanned out to the eight other
members → in-order apply on each. Nothing here reads a clock: the counts
are the Python frames entered in ``repro/wpaxos/*.py`` and the peer base
(``repro/substrate/peer.py``), the same on any box, so an extra hop on the
path moves a number below.
(``tests/test_perf_golden.py`` pins what the path sends, and when.)
"""

import collections
import os
import sys

import pytest

import repro.substrate.peer
import repro.wpaxos
from repro.net import FRANKFURT, VIRGINIA
from repro.wpaxos import WPaxosPeer
from repro.wpaxos.messages import Learn
from tests.support import fresh_world, wpaxos_grid

WPAXOS_DIR = os.path.dirname(repro.wpaxos.__file__)
# The peer base is counted with the backend, as the ledger folds
# repro.substrate frames into the backend under test.
WPAXOS_FILES = {
    os.path.join(WPAXOS_DIR, name)
    for name in os.listdir(WPAXOS_DIR)
    if name.endswith(".py")
} | {repro.substrate.peer.__file__}
ON_ENVELOPE = WPaxosPeer._on_envelope.__code__


class CallMeter:
    """Counts the frames entered in ``WPAXOS_FILES`` while installed:
    all of them (``write``), and those under one peer's handling of a
    Learn (``learn``), by function name."""

    def __init__(self, learner):
        self.learner = learner
        self.write = collections.Counter()
        self.learn = collections.Counter()
        self._learn_frame = None

    def __call__(self, frame, event, _arg):
        if event == "return":
            if frame is self._learn_frame:
                self._learn_frame = None
            return
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename not in WPAXOS_FILES:
            return
        self.write[code.co_name] += 1
        if (
            code is ON_ENVELOPE
            and frame.f_locals["self"] is self.learner
            and frame.f_locals["msg"][2].__class__ is Learn
        ):
            self._learn_frame = frame
        if self._learn_frame is not None:
            self.learn[code.co_name] += 1


def calls_of_one_write(repeats=3):
    """Per repeat, the meter of one ``set_data`` through the owner of its
    path, from the client's send until every replica applied it."""
    env, topo, net = fresh_world()
    deployment = wpaxos_grid(env, net, topo)
    owner = deployment.servers[0]
    learner = next(s for s in deployment.servers if s.site == FRANKFURT)
    assert owner.site == VIRGINIA
    client = deployment.client(VIRGINIA)
    client.server_addr = owner.client_addr
    meters = []

    def app():
        yield client.connect()
        yield client.create("/k", b"0")  # the owner steals /k here
        for _ in range(repeats):
            # 1 ms past a 50 ms heartbeat tick (and 100 ms past the last
            # write), closed before the next tick: a Learn crosses the
            # widest link (Virginia-Frankfurt, 45 ms) inside the window,
            # and no background timer fires in it.
            yield env.timeout(50.0 - env.now % 50.0 + 101.0)
            meter = CallMeter(learner.peer)
            outer = sys.getprofile()
            sys.setprofile(meter)
            try:
                yield client.set_data("/k", b"1")
                yield env.timeout(48.5 - env.now % 50.0)
            finally:
                sys.setprofile(outer)
            meters.append(meter)

    env.run(until=env.process(app()))
    assert all(meter.write["_on_learn"] == 8 for meter in meters)
    assert "/k" in owner.peer._owned
    applied = {server.peer._applied["/k"] for server in deployment.servers}
    assert len(applied) == 1, applied
    return meters


@pytest.fixture(scope="module")
def meters():
    # The sentinel's hooks are frames of repro/invariants.py: the counts
    # are the same with it on (as under pytest) or off (as in the ledger).
    return calls_of_one_write()


def test_every_repeat_of_the_write_costs_the_same(meters):
    assert len({tuple(sorted(m.write.items())) for m in meters}) == 1
    assert len({tuple(sorted(m.learn.items())) for m in meters}) == 1


def test_wpaxos_calls_of_one_write_are_pinned(meters):
    """One write through the owner, all nine replicas: 39 frames.

    The owner's submit (with is_leader from the zk layer, _object_of,
    submit_dedup_id and _remember_submit), _propose, _phase2 with its _P2
    and _accept; at each of the two zone voters, one _on_envelope,
    _on_accept and _accept; the two Accepted back, at one _on_envelope and
    _on_accepted each, the second choosing (_choose, _record_chosen,
    _apply_ready) and fanning out one Learn (_fanout_learn); and the Learn
    at each of the eight others. Before the one-pass path it took 79: a
    _send per message sent, a _maybe_choose per Accepted, a _bump_epoch per
    Accept, and each Learn recipient's _choose, _record_chosen and
    _apply_ready. It read 38 while submit_dedup_id lived in zab/peer.py,
    outside the counted files; the write entered the same frames then,
    151 under src/repro in all.
    """
    assert sum(meters[0].write.values()) == PINNED_WRITE


def test_wpaxos_calls_of_one_learn_are_pinned(meters):
    """The next slot's Learn at a member of another zone: _on_envelope and
    _on_learn, which records and applies it inline. It took 5 before:
    _on_learn then _choose, _record_chosen and _apply_ready."""
    assert dict(meters[0].learn) == {"_on_envelope": 1, "_on_learn": 1}
    assert sum(meters[0].learn.values()) == PINNED_LEARN


PINNED_WRITE, PINNED_LEARN = 39, 2
