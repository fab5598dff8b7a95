"""The replica commit path against the one it replaced.

``repro.zab`` keeps a positional log, tuple-ordered zxids, a one-hop inbox
consumer and an apply cursor; ``tests/reference_zab.py`` is the peer, log
and zxid from before that, registered here as substrate
``"zab-reference"``. Nothing about the protocol was meant to move, so the
two must be indistinguishable from outside: the same seeded world sends
the same messages at the same instants, delivers the same commits to every
replica (the reference then delivers them again from zero after a restart,
where the product resumes after what it delivered) and costs the kernel
the same number of events, slice by slice (less the two a crash spends
stopping the reference's generator ticker, which the product's ``Ticker``
does with a flag) — only the number of Python calls it takes differs, and
that is pinned at the bottom. The twins are ``tests/twins.py``'s.
(``tests/test_substrate_contract.py`` runs its scenarios over the
reference as well.)
"""

import os
import sys

import pytest

import repro.substrate.peer
import repro.zab
from repro.net import VIRGINIA
from repro.substrate import SUBSTRATES, SubstrateSpec
from repro.zk import build_zk_deployment
from tests import reference_zab, test_perf_golden
from tests.support import fresh_world
from tests.twins import SITES, Twin, first_divergence, run_twins

pytestmark = pytest.mark.usefixtures("zab_reference")

KEYS = tuple(f"/d/k{index}" for index in range(12))
#: Message fields that carry a zxid, whatever the message.
ZXID_FIELDS = ("zxid", "last_zxid", "last_committed", "committed_to", "truncate_to")
#: The harness's stack under each system's name. Its crash_leader takes
#: down the zk ensemble's one leader, which election puts in its leader
#: site, or California's site leader.
STACK = {"zk": "zk-zab", "wk": "wk-zab"}
#: Kernel events the reference spends stopping a crashed peer's ticker:
#: it keeps the generator ticker that ``Ticker`` replaced, and stopping a
#: generator costs two entries a flag needs neither of, the interrupt and
#: the process's completion.
TICKER_STOP_EVENTS = 2
#: Each run's steps and its end (ms): a clean run's clients are done by
#: 9 s; a lossy one takes loss from the first op, inside the sites too (a
#: WanKeeper ensemble never leaves one), a leader down and back, repair
#: at 20 s, and a quiet tail after its clients are done (by 22 s).
RUNS = {
    False: ([], 10000.0),
    True: ([(0.0, Twin.lossy_everywhere), (4000.0, Twin.crash_leader),
            (5500.0, Twin.restart_crashed), (20000.0, Twin.heal)], 26000.0),
}


def pair(zxid):
    """A zxid of either implementation as a plain tuple."""
    return None if zxid is None else (zxid.epoch, zxid.counter)


def zxids_only(body):
    """A message as its type and the zxids it carries: the one thing the
    two implementations' message classes share."""
    return (
        type(body).__name__,
        tuple(pair(getattr(body, name, None)) for name in ZXID_FIELDS),
        tuple(pair(entry.zxid) for entry in getattr(body, "entries", ())),
    )


def world(system, substrate, seed, lossy):
    """One seeded deployment on one Zab implementation, with everything
    the two implementations must agree on recorded."""
    twin = Twin(STACK[system], seed, substrate, normalize=zxids_only,
                jitter=0.1 if lossy else 0.0)
    twin.start_clients(SITES, keys=KEYS, ops=60, write_share=0.6,
                       pace=(0.0, 40.0), timeout_ms=1000.0)
    return twin


def commits(twin):
    """Each server's commit deliveries."""
    return {name: [event for event in log if event[1] == "commit"]
            for name, log in twin.logs.items()}


def first_deliveries(delivered):
    """Drop what a replay from zero delivers again: every delivery at or
    below the newest position delivered before it."""
    kept = []
    for event in delivered:
        if not kept or event[2] > kept[-1][2]:
            kept.append(event)
    return kept


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("system", ["zk", "wk"])
def test_same_seeded_world_sends_commits_and_schedules_identically(
    system, seed, lossy
):
    new = world(system, "zab", seed, lossy)
    old = world(system, "zab-reference", seed, lossy)
    # The reference peer keeps the generator ticker that ``Ticker`` replaced
    # (the zk / wankeeper layers above it tick the same way in both worlds),
    # so this is also Ticker's differential test: same instants, same
    # sequence numbers, until a crash; the lossy worlds crash one peer, once.
    steps, until = RUNS[lossy]
    run_twins(new, old, steps, until, ("sent", "history"),
              crash_events=TICKER_STOP_EVENTS)
    assert all(p.triggered and p.ok for twin in (new, old) for p in twin.procs)
    assert type(old.deployment.servers[0].peer) is reference_zab.ZabPeer
    assert type(new.deployment.servers[0].peer) is repro.zab.ZabPeer
    new_commits, old_commits = commits(new), commits(old)
    assert len(new.sent) > 1000 and all(new_commits.values())
    assert not first_divergence("sent", new.sent, old.sent)
    assert sorted(new_commits) == sorted(old_commits)
    for server, delivered in new_commits.items():
        assert first_deliveries(delivered) == delivered
        assert not first_divergence(
            f"commits at {server}", delivered,
            first_deliveries(old_commits[server]),
        )
    assert new.env.now == old.env.now
    peer_tickers_crashed = 1 if lossy else 0
    assert old.env._seq - new.env._seq == TICKER_STOP_EVENTS * peer_tickers_crashed
    # And the run was a real one: every replica ends on the same tree.
    for twin in (new, old):
        trees = {s.tree.fingerprint() for s in twin.deployment.servers}
        assert len(trees) == 1
    if lossy:
        assert new.net.messages_dropped > 0 and new.net.messages_duplicated > 0


# -- the oracle is the old code ---------------------------------------------------


@pytest.mark.parametrize(
    "system, golden, peers",
    [("zk", test_perf_golden.GOLDEN_ZK_HISTORY, 3),
     ("wk", test_perf_golden.GOLDEN_WK_HISTORY, 9)],
)
def test_reference_zab_reproduces_the_golden_histories(
    monkeypatch, system, golden, peers
):
    made = []

    def factory(*args, **kwargs):
        made.append(reference_zab.ZabPeer(*args, **kwargs))
        return made[-1]

    # build_world takes the default substrate: answer to its name.
    monkeypatch.setitem(
        SUBSTRATES, "zab", SubstrateSpec("zab", factory, single_leader=True)
    )
    assert test_perf_golden.history_digest(system) == golden
    assert len(made) == peers
    assert all(type(peer.log) is reference_zab.TxnLog for peer in made)


# -- what one write costs in Python calls (counts, no wall clock) ----------------

# The peer base is counted with the backend, as the ledger folds
# repro.substrate frames into the backend under test.
ZAB_FILES = {
    os.path.join(os.path.dirname(repro.zab.__file__), name)
    for name in os.listdir(os.path.dirname(repro.zab.__file__))
    if name.endswith(".py")
} | {repro.substrate.peer.__file__, reference_zab.__file__}


def zab_calls_per_write(substrate, repeats=3):
    """Python frames entered in ``repro/zab/*.py`` and the peer base (or
    the reference) for one write through a follower of a one-site three-voter ensemble."""
    env, topo, net = fresh_world()
    deployment = build_zk_deployment(
        env, net, topo, leader_site=VIRGINIA, substrate=substrate,
    )
    deployment.start()
    deployment.stabilize()
    leader = deployment.site_leader(VIRGINIA)
    follower = next(s for s in deployment.servers if s is not leader)
    client = deployment.client(VIRGINIA)
    client.server_addr = follower.client_addr
    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in ZAB_FILES:
            calls[0] += 1

    costs = []

    def app():
        yield client.connect()
        yield client.create("/k", b"0")
        # Off the 50 ms heartbeat grid, each window closed well before the
        # next tick: the only zab frames in it are this write's.
        yield env.timeout(50.0 - env.now % 50.0 + 7.3)
        for _ in range(repeats):
            calls[0] = 0
            outer = sys.getprofile()
            sys.setprofile(profiler)
            try:
                yield client.set_data("/k", b"1")
                yield env.timeout(10.0)  # the other follower's commit too
            finally:
                sys.setprofile(outer)
            costs.append(calls[0])

    env.run(until=env.process(app()))
    assert len(set(costs)) == 1, costs  # no background timer in the window
    delivered = {server.peer.commits_delivered for server in deployment.servers}
    assert len(delivered) == 1 and delivered.pop() >= 1 + repeats
    return costs[0]


def test_zab_calls_of_one_write_are_pinned(monkeypatch):
    """An extra hop on the commit path moves the first number, on any box.

    Product, 33: seven delivered messages (forward, two proposals, two
    acks, two commits) at one _on_envelope and one handler each; on the
    follower the client talks to, is_leader, forward_submit and _send; on
    the leader, is_leader, submit_dedup_id and _remember_submit twice
    (taking the forward in, then proposing it), _propose, is_leader for the
    zk layer's reply path, and one _maybe_commit; three log appends, three
    _apply_up_to, and a position_of under each follower's commit.
    Reference, 94: the same, plus a _dispatch per message, a _send per
    fan-out target, is_quorum -> quorum_size, _follows, last_zxid, and
    under all of it 15 packed(), 10 Zxid.__le__ and 9 Zxid.__hash__.
    """
    # The bare path, as the ledger runs it: the sentinel orders and hashes
    # the zxids it is shown, which costs the reference 7 more dunder calls.
    monkeypatch.setenv("REPRO_SENTINEL", "0")
    product = zab_calls_per_write("zab")
    reference = zab_calls_per_write("zab-reference")
    assert (product, reference) == (PINNED_PRODUCT, PINNED_REFERENCE)
    assert product < reference


PINNED_PRODUCT, PINNED_REFERENCE = 33, 94
