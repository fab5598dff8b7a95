"""Acceptance soak: WanKeeper over a lossy WAN with a gray-failure nemesis.

Every WAN link carries ambient loss + duplication (>= 1% each) while the
nemesis injects crashes, symmetric partitions, flaky links, asymmetric
one-way partitions, and gray degradations. Clients drive writes through
the stable-cxid retry layer. After repair and a quiet period the run must
satisfy the global invariants:

1. replica convergence (identical tree content everywhere);
2. token exclusivity (single owner per key across site leaders);
3. per-key linearizability of the write history against the final value;
4. no-double-apply: every (session, cxid) applied at most once per replica.

The soak is the product's: ``repro.runner.cells.lossy_soak`` (the soak
cell's world) on the one driver, ``repro.soak.run_soak``, at 60 ops per
actor. The assertions below check its record independently of the checks
the driver reports.

The same soak on servers without at-most-once
(``tests/reference_at_most_once.py::NoAtMostOnce``) demonstrably violates
(4): the online sentinel trips ``no-double-apply``. The guarantee comes
from the cache, not from luck.

Since the nemesis draws its faults as schedule entries,
``tests/test_nemesis_schedule.py`` pins this soak's faults against the
probabilistic scheduler it replaced and replays a soak from its recorded
schedule.
"""

import pytest

from repro.consistency import HistoryRecorder, check_causal, check_linearizable_per_key
from repro.invariants import InvariantViolation
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA
from repro.runner import cells
from repro.wankeeper import deployment as wk_deployment

from tests.reference_at_most_once import NoAtMostOnceWanKeeperServer

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
KEYS = [f"/soak/k{i}" for i in range(8)]
OPS_PER_ACTOR = 60


def run_lossy_soak(seed):
    """Run the soak; returns (deployment, nemesis, history, indeterminate).

    Keys with an indeterminate write (the op failed at the client but may
    still have committed server-side) have an incomplete recorded history,
    so consistency checks must skip them.
    """
    run = cells.lossy_soak(seed, OPS_PER_ACTOR, len(KEYS), 30000.0)
    if run.violation is not None:
        raise run.violation
    assert run.finished, "the soak did not finish within 3.6e6 ms"
    return run.deployment, run.nemesis, run.history, run.indeterminate


@pytest.mark.parametrize("seed", [3, 17])
def test_lossy_soak_invariants_hold_with_reply_cache(seed):
    deployment, nemesis, history, indeterminate = run_lossy_soak(seed)

    # The schedule actually exercised the new fault kinds.
    summary = nemesis.summary()
    for kind in ("flaky-link", "oneway-partition", "gray-degrade"):
        assert summary.get(kind, 0) >= 1, summary

    # Nearly all ops succeed through retries; keys with an indeterminate
    # write are excluded from the history checks below.
    checkable = [key for key in KEYS if key not in indeterminate]
    assert len(checkable) >= len(KEYS) - 2, indeterminate

    # 1. Replica convergence.
    fingerprints = set(deployment.content_fingerprints().values())
    assert len(fingerprints) == 1

    # 2. Token exclusivity across site leaders.
    owners = {}
    for site in SITES:
        leader = deployment.site_leader(site)
        for key in leader.site_tokens.owned:
            owners.setdefault(key, []).append(site)
    for key, sites in owners.items():
        assert len(sites) == 1, f"{key} owned by {sites}"

    # 3. Linearizability: per-key writes + a final read of the converged
    # value must admit a legal total order; the cross-site read/write
    # history must additionally be causally consistent.
    tree = deployment.servers[0].tree
    now = deployment.env.now
    for key in checkable:
        data, _stat = tree.get_data(key)
        history.record(
            "final-check", "read", key, int(data) if data else None, now, now + 1.0
        )
    ops = [
        op
        for op in history.operations
        if op.key in checkable
        and (op.kind == "write" or op.client == "final-check")
    ]
    assert check_linearizable_per_key(ops, initial=None) == []
    filtered = HistoryRecorder()
    filtered.operations = [
        op for op in history.operations if op.key in checkable
    ]
    assert check_causal(filtered) == []

    # 4. No double apply, on any replica, for any (session, cxid).
    for server in deployment.servers:
        assert server.apply_counts, f"{server.name} applied nothing"
        worst = max(server.apply_counts.values())
        assert worst == 1, f"{server.name} applied a request {worst} times"

    # 5. The online sentinel (tests/conftest.py enables it) watched the
    # whole run: any violation would have raised mid-simulation. Confirm
    # it was live and close out with the quiesce-time ephemeral check.
    sentinel = deployment.sentinel
    assert sentinel is not None, "sentinel not attached under REPRO_SENTINEL"
    assert sentinel.checks_run > 0, "sentinel saw no checked events"
    assert sentinel.violations == 0
    sentinel.final_check()


def test_lossy_soak_without_reply_cache_double_applies(monkeypatch):
    """Control experiment: the identical soak on servers without
    at-most-once fails the no-double-apply invariant — a retried write
    that had already committed gets applied again, and the sentinel
    trips."""
    monkeypatch.setenv("REPRO_SENTINEL", "1")
    monkeypatch.setattr(
        wk_deployment, "WanKeeperServer", NoAtMostOnceWanKeeperServer
    )
    monkeypatch.setattr(cells, "SOAK_REQUEST_TIMEOUT_MS", 1200.0)
    with pytest.raises(InvariantViolation) as caught:
        run_lossy_soak(3)
    assert caught.value.invariant == "no-double-apply"
    assert " 2 times " in caught.value.detail
