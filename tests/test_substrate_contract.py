"""Conformance suite for broadcast substrates (:mod:`repro.substrate`).

Every registered backend must honor the same observable contract, no
matter how differently it orders internally:

* **Total order per ordering domain** — all replicas deliver a domain's
  transactions in one identical sequence, with strictly increasing
  zxids. Zab has a single domain (the whole log); WPaxos orders per
  object (znode path, or the ``__sessions__`` meta object).
* **Epoch monotonicity** — ``current_epoch`` never decreases on any
  peer, across elections, ownership steals, crashes and restarts.
* **No commit loss across leader change** — transactions delivered
  before the proposer crashed are still delivered by every live replica
  afterwards, exactly once.
* **Observer catch-up** — an observer (even one that crashed and
  restarted) converges to the voters' delivery sequence. A product
  peer (zab, wpaxos) keeps its state across a restart and resumes after
  what it delivered; only the replaying test oracles (zab-reference,
  wpaxos-replay) have an ``on_reset`` and replay their log from zero.
"""

import pytest

from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, Network, wan_topology
from repro.sim import Environment, seeded_rng
from repro.substrate import create_peer, get_substrate, substrate_names
from repro.wpaxos import META_OBJECT
from repro.zab import EnsembleConfig

#: ``zab-reference`` is the Zab peer the current one replaced and
#: ``wpaxos-replay`` the WPaxos restart the current one replaced, each
#: registered for the test by a fixture: the contract holds for the oracles
#: too.
SUBSTRATES = ("zab", "zab-reference", "wpaxos", "wpaxos-replay")
pytestmark = pytest.mark.usefixtures("zab_reference", "wpaxos_replay")

#: WPaxos needs >= 2 voters per zone to survive a voter crash (phase-1
#: quorums take a majority of every zone); Zab's majority spans sites.
VOTER_SITES = {
    "zab": (VIRGINIA, CALIFORNIA, FRANKFURT),
    "zab-reference": (VIRGINIA, CALIFORNIA, FRANKFURT),
    "wpaxos": (VIRGINIA,) * 3 + (CALIFORNIA,) * 3 + (FRANKFURT,) * 3,
    "wpaxos-replay": (VIRGINIA,) * 3 + (CALIFORNIA,) * 3 + (FRANKFURT,) * 3,
}


class PathTxn:
    """Minimal transaction with a znode path (an ordering-domain key)."""

    __slots__ = ("op", "tag")

    class _Op:
        __slots__ = ("path",)

        def __init__(self, path):
            self.path = path

    def __init__(self, path: str, tag: str):
        self.op = PathTxn._Op(path)
        self.tag = tag

    def __repr__(self) -> str:
        return f"PathTxn({self.op.path}, {self.tag})"


def build(substrate, observer_sites=()):
    env = Environment()
    topo = wan_topology()
    net = Network(env, topo, rng=seeded_rng(11, "net"))
    voters = [
        topo.site(site).address(f"v{i}")
        for i, site in enumerate(VOTER_SITES[substrate])
    ]
    observers = [
        topo.site(site).address(f"o{i}")
        for i, site in enumerate(observer_sites)
    ]
    config = EnsembleConfig(voters=voters, observers=observers)
    peers = [
        create_peer(substrate, env, net, addr, config, name=addr.name)
        for addr in voters + observers
    ]
    for peer in peers:
        peer.start()
    env.run(until=2000.0)
    return env, peers


def domain_of(substrate, txn):
    if get_substrate(substrate).single_leader:
        return "__log__"
    path = getattr(getattr(txn, "op", None), "path", None)
    return path if path is not None else META_OBJECT


def record_commits(substrate, peers):
    """Wire per-peer (domain -> [(zxid, txn)]) delivery logs."""
    logs = {peer.addr: {} for peer in peers}

    def recorder(peer):
        def on_commit(zxid, txn):
            domain = domain_of(substrate, txn)
            logs[peer.addr].setdefault(domain, []).append((zxid, txn))

        return on_commit

    for peer in peers:
        peer.on_commit = recorder(peer)
        if hasattr(peer, "on_reset"):
            # A replaying oracle re-delivers everything: drop stale entries.
            peer.on_reset = lambda p: logs[p.addr].clear()
    return logs


def proposer_at(substrate, peers, site):
    """A live peer that may call ``submit``: for a multileader substrate
    any voter in ``site``; for a single-leader one, the current leader —
    wherever the election put it (``site`` is only a preference)."""
    if get_substrate(substrate).single_leader:
        return next(
            (p for p in peers if p.is_alive and p.is_leader), None
        )
    candidates = [
        p for p in peers
        if p.addr.site == site and p.is_alive and not p.is_observer
    ]
    return candidates[0] if candidates else None


def submit_from(peers, site, txn):
    """Submit on a local proposer, or forward through a local peer."""
    local = [p for p in peers if p.addr.site == site and p.is_alive]
    assert local, f"no live peer in {site}"
    for peer in local:
        if peer.is_leader:
            return peer.submit(txn)
    local[0].forward_submit(txn)
    return None


def test_registry_knows_both_backends():
    assert set(SUBSTRATES) <= set(substrate_names())
    assert get_substrate("zab").single_leader
    assert not get_substrate("wpaxos").single_leader
    with pytest.raises(ValueError, match="unknown substrate"):
        get_substrate("raft")


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_total_order_per_domain(substrate):
    env, peers = build(substrate)
    logs = record_commits(substrate, peers)
    sites = (VIRGINIA, CALIFORNIA, FRANKFURT)
    submitted = {}
    for round_index in range(8):
        for site in sites:
            txn = PathTxn(f"/conf/{site}", f"{site}-{round_index}")
            submitted.setdefault(domain_of(substrate, txn), []).append(txn.tag)
            submit_from(peers, site, txn)
        env.run(until=env.now + 200.0)
    env.run(until=env.now + 5000.0)

    reference = logs[peers[0].addr]
    for domain, tags in submitted.items():
        ref_tags = [txn.tag for _z, txn in reference.get(domain, [])]
        assert sorted(ref_tags) == sorted(tags), f"{domain} lost/dup commits"
        for peer in peers:
            entries = logs[peer.addr].get(domain, [])
            assert [txn.tag for _z, txn in entries] == ref_tags, (
                f"{peer.name} disagrees on {domain}"
            )
            zxids = [zxid for zxid, _t in entries]
            assert zxids == sorted(zxids)
            assert len(set(zxids)) == len(zxids), "duplicate zxid in domain"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_epoch_monotonicity_across_crash_and_restart(substrate):
    env, peers = build(substrate)
    logs = record_commits(substrate, peers)  # noqa: F841 - keeps peers busy
    samples = {peer.addr: [] for peer in peers}

    def sampler():
        while True:
            for peer in peers:
                samples[peer.addr].append(peer.current_epoch)
            yield env.timeout(100.0)

    env.process(sampler(), name="epoch-sampler")
    victim = proposer_at(substrate, peers, VIRGINIA)
    submit_from(peers, VIRGINIA, PathTxn("/epoch/a", "before"))
    env.run(until=env.now + 1000.0)
    victim.crash()
    env.run(until=env.now + 2000.0)
    # Force new coordination: another site proposes (election for Zab,
    # ownership steal for WPaxos), bumping the epoch somewhere.
    submit_from(peers, CALIFORNIA, PathTxn("/epoch/a", "after"))
    env.run(until=env.now + 2000.0)
    victim.restart()
    env.run(until=env.now + 3000.0)
    for peer in peers:
        trail = samples[peer.addr]
        assert trail == sorted(trail), f"epoch went backwards on {peer.name}"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_no_commit_loss_across_leader_change(substrate):
    env, peers = build(substrate)
    logs = record_commits(substrate, peers)
    first = proposer_at(substrate, peers, VIRGINIA)
    assert first is not None
    batch1 = [PathTxn("/loss/x", f"one-{i}") for i in range(10)]
    for txn in batch1:
        first.submit(txn)
    env.run(until=env.now + 4000.0)
    domain = domain_of(substrate, batch1[0])
    for peer in peers:
        got = [txn.tag for _z, txn in logs[peer.addr].get(domain, [])]
        assert got == [t.tag for t in batch1]

    first.crash()
    env.run(until=env.now + 2000.0)
    second = proposer_at(substrate, peers, CALIFORNIA)
    assert second is not None and second is not first
    batch2 = [PathTxn("/loss/x", f"two-{i}") for i in range(10)]
    for txn in batch2:
        second.submit(txn)
    env.run(until=env.now + 6000.0)

    live = [p for p in peers if p.is_alive]
    reference = [
        txn.tag for _z, txn in logs[live[0].addr].get(domain, [])
    ]
    expected = {t.tag for t in batch1} | {t.tag for t in batch2}
    assert set(reference) == expected, "commits lost across leader change"
    assert reference[:10] == [t.tag for t in batch1], (
        "pre-crash prefix must survive the takeover"
    )
    for peer in live:
        got = [txn.tag for _z, txn in logs[peer.addr].get(domain, [])]
        assert got == reference, f"{peer.name} diverges after takeover"


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_observer_catch_up_through_crash(substrate):
    env, peers = build(substrate, observer_sites=(CALIFORNIA,))
    observer = peers[-1]
    assert observer.is_observer and not observer.is_leader
    logs = record_commits(substrate, peers)
    domain = domain_of(substrate, PathTxn("/obs/k", ""))

    def tags(peer):
        return [txn.tag for _z, txn in logs[peer.addr].get(domain, [])]

    for i in range(5):
        submit_from(peers, VIRGINIA, PathTxn("/obs/k", f"live-{i}"))
    env.run(until=env.now + 3000.0)
    assert tags(observer) == [f"live-{i}" for i in range(5)]

    # Forwarding through the observer must reach a proposer.
    observer.forward_submit(PathTxn("/obs/k", "via-observer"))
    env.run(until=env.now + 3000.0)
    assert tags(observer)[-1] == "via-observer"

    observer.crash()
    for i in range(5):
        submit_from(peers, VIRGINIA, PathTxn("/obs/k", f"missed-{i}"))
    env.run(until=env.now + 3000.0)
    # The delivery log is the observer's state machine: it survives the
    # crash, and a product peer keeps it and resumes after it (only a
    # replaying oracle clears it, through on_reset).
    observer.restart()
    env.run(until=env.now + 6000.0)
    voters_view = tags(peers[0])
    assert [t for t in voters_view if t.startswith("missed")] == [
        f"missed-{i}" for i in range(5)
    ]
    assert tags(observer) == voters_view, "observer failed to catch up"
