"""State transfer against the replay from zero it replaced, in twin worlds.

Each test builds two seeded worlds that differ only in the substrate
peer: the product (``zab`` / ``wpaxos``: a restart keeps the replica's
state and resumes at its applied point, the log keeps a window of applied
entries, and a learner below it takes a copy of another replica's state)
and ``tests/reference_replay.py`` (``zab-replay`` / ``wpaxos-replay``: a
restart, and a Zab SNAP, re-apply the whole durable log from zero, and
the log keeps everything). Both run the same client schedule in lockstep,
one slice of sim time at a time. On wk x zab and zk x zab: a clean run;
2 % loss and duplication with a leader crash and restart; and, with the
log window cut to 8 entries, a follower that is down long enough to
rejoin by SNAP. On zk x wpaxos (three voters a zone): a clean run; voters
crashed and restarted, with no ambient loss; and, with the window cut to
8 applies, a voter down long enough to rejoin by ResyncSnap. After each
slice the clients' histories, the messages sent (a DIFF, a SNAP, a
whole-log SNAP, a ResyncRsp and a ResyncSnap each count as one sync
message) and the kernel event count must agree; at the end so must the
trees, ``apply_counts`` (in order on zab; on wpaxos the reference replays
a restarted replica object by object, so only the contents), and
``replies_from_cache`` and ``duplicate_commits_suppressed`` — less what
the reference counts again while it replays, and what the product's
learner never applied because the state it installed already held it.
The twins are ``tests/twins.py``'s. The last test pins the oracles' own
reset: a replaying restart empties the server above it, so the replay
applies everything again.
"""

import pytest

from repro.invariants import InvariantViolation
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.substrate import SUBSTRATES, SubstrateSpec
from repro.wankeeper import build_wankeeper_deployment
from repro.wpaxos.messages import ResyncRsp, ResyncSnap
from repro.wpaxos.peer import WPaxosPeer
from repro.substrate import peer as substrate_peer
from repro.zab.messages import Diff, Snap

from tests.reference_replay import WholeLogSnap
from tests.support import fresh_world, run_app, wpaxos_grid
from tests.twins import SITES, Twin, run_twins

pytestmark = pytest.mark.usefixtures("zab_replay", "wpaxos_replay")

KEYS = tuple(f"/st/k{i}" for i in range(6))
SYNC = (Diff, Snap, WholeLogSnap, ResyncRsp, ResyncSnap)
#: Ops a client: 35 where a case takes down a server clients talk to. Their
#: sessions expire there and they reconnect, so every op is a real one; 35
#: keeps such a run no costlier than a clean one.
OPS = {"clean": 50, "lossy": 35, "crash": 35, "snap": 50}
#: The harness's stack under each case's name.
STACK = {"wk": "wk-zab", "zk": "zk-zab", "zk-wpaxos": "zk-wpaxos-grid"}


def sync_as_one(body):
    """Every sync message is one message, whatever state it carries."""
    return "sync" if isinstance(body, SYNC) else repr(body)


def world(stack, substrate, seed, case):
    """One twin, and where its clients connect: each site's leader on wk,
    the first voter of Virginia and of California on zk. Its ``victim``
    is a server no client talks to, which a SNAP case takes down."""
    twin = Twin(STACK[stack], seed, substrate, normalize=sync_as_one,
                jitter=0.1 if case == "lossy" else 0.0)
    deployment = twin.deployment
    if stack == "wk":
        leader = deployment.site_leader(CALIFORNIA)
        twin.victim = next(s for s in deployment.by_site[CALIFORNIA]
                           if s is not leader)
        twin.homes = {site: deployment.site_leader(site) for site in SITES}
    else:
        twin.victim = deployment.by_site[FRANKFURT][-1]
        twin.homes = {site: deployment.by_site[site][0]
                      for site in (VIRGINIA, CALIFORNIA)}
    twin.start_clients(sorted(twin.homes) * 2, homes=twin.homes, keys=KEYS,
                       ops=OPS[case], write_share=0.6, pace=(10.0, 120.0),
                       timeout_ms=1000.0)
    return twin


def crash_home(twin):
    """The voter California's clients talk to, and the owner of what they
    last wrote."""
    twin.crash(twin.homes[CALIFORNIA])


def crash_victim(twin):
    twin.crash(twin.victim)


def first_applies(twin, name):
    """The apply events of one server less a replay's second delivery of
    a position."""
    seen = set()
    kept = []
    for event in twin.logs[name]:
        if event[1] == "apply" and event[2] not in seen:
            seen.add(event[2])
            kept.append(event)
    return kept


def applies(twin, name):
    return [event for event in twin.logs[name] if event[1] == "apply"]


STEPS = {
    "clean": [],
    "lossy": [(0.0, Twin.lossy), (3000.0, Twin.crash_leader),
              (5500.0, Twin.restart_crashed), (14000.0, Twin.heal)],
    "crash": [(3000.0, crash_home), (5500.0, Twin.restart_crashed),
              (7000.0, crash_victim), (9500.0, Twin.restart_crashed)],
    "snap": [(2000.0, crash_victim), (7000.0, Twin.restart_crashed)],
}
CASES = [(stack, case) for stack in ("wk", "zk")
         for case in ("clean", "lossy", "snap")]
CASES += [("zk-wpaxos", case) for case in ("clean", "crash", "snap")]


@pytest.mark.parametrize("stack,case", CASES, ids=[f"{s}-{c}" for s, c in CASES])
def test_state_transfer_matches_replay_from_zero(stack, case, monkeypatch):
    if case == "snap":
        monkeypatch.setattr(substrate_peer, "DIFF_WINDOW", 8)
    seed = 71
    substrate = "wpaxos" if stack == "zk-wpaxos" else "zab"
    product = world(stack, substrate, seed, case)
    reference = world(stack, f"{substrate}-replay", seed, case)
    twins = (product, reference)
    run_twins(product, reference, STEPS[case], 30000.0, ("sent", "history"))
    assert all(p.triggered and p.ok for twin in twins for p in twin.procs)

    names = [s.name for s in product.servers]
    trees = [s.tree.fingerprint() for s in product.servers]
    assert trees == [s.tree.fingerprint() for s in reference.servers]
    assert len(set(trees)) == 1
    for ours, theirs in zip(product.servers, reference.servers):
        if substrate == "wpaxos":
            assert ours.apply_counts == theirs.apply_counts
        else:
            assert list(ours.apply_counts.items()) == list(theirs.apply_counts.items())
        assert ours.replies_from_cache == theirs.replies_from_cache
    # Apply by apply: what the product applied is what the reference
    # applied the first time, less what a SNAP's state already held.
    for name, ours, theirs in zip(names, product.servers, reference.servers):
        assert first_applies(product, name) == applies(product, name)
        skipped = [
            event for event in first_applies(reference, name)
            if any(domain == event[2][0] and low < event[2][1] <= high
                   for _now, domain, low, high in product.installs[name])
        ]
        expected = [e for e in first_applies(reference, name) if e not in skipped]
        assert applies(product, name) == expected, name
        # The counters count exactly these events, on either side.
        for server, events in ((ours, expected),
                               (theirs, applies(reference, name))):
            suppressed = sum(e[4] is None for e in events)
            assert server.duplicate_commits_suppressed == suppressed, name
            assert server.commits_applied == len(events) - suppressed, name

    # The schedule reached the paths it is meant to pin.
    assert sum(s.commits_applied for s in product.servers) > 100
    if case != "clean":
        crashed = product.crashed.name
        assert applies(reference, crashed) != first_applies(reference, crashed)
        assert first_applies(product, crashed) == applies(product, crashed)
    installed = [name for name in names if product.installs[name]]
    if case == "snap":
        assert installed == [product.victim.name]
        assert not any(reference.installs.values())
    else:
        assert installed == []


# -- hand-made mutants of the WPaxos peer, each caught by a twin leg ----------


class RestartForgetsApplied(WPaxosPeer):
    """Mutant: a restart resets the applied points over the kept state."""

    def restart(self):
        self._applied = {}
        super().restart()


class CompactionOffByOne(WPaxosPeer):
    """Mutant: compaction drops the slot after the one leaving the window."""

    def _compact(self, count):
        window, applied, base = self._window, self._applied, self._base
        for _ in range(count):
            obj = window.popleft()
            slot = base.get(obj, 0)
            base[obj] = slot + 1
            chosen = self._chosen[obj]
            chosen.pop(slot - 1, None)
            if slot + 2 < applied[obj]:
                chosen.pop(slot + 1, None)


@pytest.mark.parametrize("mutant,case", [
    (RestartForgetsApplied, "crash"),
    (CompactionOffByOne, "snap"),
], ids=["restart-forgets-applied", "compaction-off-by-one"])
def test_the_wpaxos_twins_catch_a_mutant(mutant, case, monkeypatch):
    monkeypatch.setitem(SUBSTRATES, "wpaxos",
                        SubstrateSpec("wpaxos", mutant, single_leader=False))
    with pytest.raises((AssertionError, KeyError, InvariantViolation)):
        test_state_transfer_matches_replay_from_zero("zk-wpaxos", case, monkeypatch)


@pytest.mark.parametrize("stack", ["wk", "zk-wpaxos"])
def test_a_replaying_restart_rebuilds_its_server_from_empty(stack):
    """The oracles' default ``on_reset`` (``reset_server_above``) empties
    the server above the peer, WAN state included, so the replay applies
    every txn again instead of suppressing it as a duplicate."""
    env, topo, net = fresh_world(seed=5)
    if stack == "wk":
        deployment = build_wankeeper_deployment(env, net, topo, substrate="zab-replay")
        deployment.start()
        deployment.stabilize()
        leader = deployment.site_leader(CALIFORNIA)
        victim, sibling = [s for s in deployment.by_site[CALIFORNIA] if s is not leader]
    else:
        deployment = wpaxos_grid(env, net, topo, substrate="wpaxos-replay")
        victim, sibling = [s for s in deployment.servers if s.site == FRANKFURT][1:]
    client = deployment.client(CALIFORNIA)

    def app():
        yield client.connect()
        yield client.create("/st", b"")
        for key in KEYS:
            yield client.create(key, b"")
            yield client.set_data(key, b"1")
        return True

    run_app(env, app())
    env.run(until=env.now + 1000.0)
    suppressed = victim.duplicate_commits_suppressed
    victim.crash()
    victim.restart()
    if stack == "wk":  # the replay waits for the leader's sync
        assert not any(victim.tree.exists(key) for key in KEYS)
        assert victim.apply_counts == {} and victim._seen_wan_ids == set()
    env.run(until=env.now + 3000.0)
    assert victim.tree.fingerprint() == sibling.tree.fingerprint()
    assert victim.duplicate_commits_suppressed == suppressed
