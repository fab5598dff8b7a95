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

The same soak on servers without at-most-once
(``tests/reference_at_most_once.py::NoAtMostOnce``) demonstrably violates
(4): the online sentinel trips ``no-double-apply``. The guarantee comes
from the cache, not from luck.

Since the nemesis draws its faults as schedule entries,
``tests/test_nemesis_schedule.py`` pins this soak's faults against the
probabilistic scheduler it replaced and replays a soak from its recorded
schedule.
"""

import itertools
import random

import pytest

from repro.consistency import HistoryRecorder, check_causal, check_linearizable_per_key
from repro.invariants import InvariantViolation
from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA, LinkProfile
from repro.nemesis import Nemesis, NemesisConfig
from repro.sim import seeded_rng
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper import deployment as wk_deployment
from repro.zk import ConnectionLossError, SessionExpiredError

from tests.reference_at_most_once import NoAtMostOnceWanKeeperServer
from tests.support import fresh_world, run_app

SITES = (VIRGINIA, CALIFORNIA, FRANKFURT)
KEYS = [f"/soak/k{i}" for i in range(8)]
OPS_PER_ACTOR = 60
AMBIENT = LinkProfile(loss=0.02, duplicate=0.02)


def _nemesis_config():
    return NemesisConfig(
        interval_ms=1000.0,
        crash_probability=0.2,
        partition_probability=0.1,
        flaky_link_probability=0.15,
        oneway_partition_probability=0.15,
        gray_degrade_probability=0.15,
        repair_after_ms=2500.0,
    )


def run_lossy_soak(seed, request_timeout_ms=3000.0):
    """Run the soak; returns (deployment, nemesis, history, failures)."""
    env, topo, net = fresh_world(seed=seed, jitter=0.1)
    deployment = build_wankeeper_deployment(env, net, topo)
    deployment.start()
    deployment.stabilize()
    for site_a, site_b in itertools.combinations(SITES, 2):
        net.degrade(site_a, site_b, AMBIENT)

    nemesis = Nemesis(
        env, net, deployment, seeded_rng(seed, "nemesis"), _nemesis_config()
    )
    history = HistoryRecorder()
    counter = {"next": 0}
    failures = {"count": 0}
    # Keys with an indeterminate write (the op failed at the client but may
    # still have committed server-side): their recorded history is
    # incomplete, so consistency checks must skip them.
    indeterminate = set()

    def site_client(site):
        client = deployment.client(
            site,
            session_timeout_ms=30000.0,
            request_timeout_ms=request_timeout_ms,
        )
        # Bind to the site leader so retries exercise the leader-direct
        # routing path (the one the reply cache must make idempotent).
        leader = deployment.site_leader(site)
        if leader is not None and leader.is_alive:
            client.server_addr = leader.client_addr
        return client

    def actor(site, rng):
        client = site_client(site)
        yield client.connect_retrying(max_retries=10)
        for _ in range(OPS_PER_ACTOR):
            key = rng.choice(KEYS)
            is_write = rng.random() < 0.6
            start = env.now
            try:
                if is_write:
                    counter["next"] += 1
                    value = counter["next"]
                    yield client.set_data_retrying(
                        key, str(value).encode(), max_retries=10
                    )
                    history.record(site, "write", key, value, start, env.now)
                else:
                    data, _stat = yield client.get_data_retrying(
                        key, max_retries=10
                    )
                    history.record(
                        site,
                        "read",
                        key,
                        int(data) if data else None,
                        start,
                        env.now,
                    )
            except (ConnectionLossError, SessionExpiredError) as exc:
                failures["count"] += 1
                if is_write:
                    indeterminate.add(key)
                if isinstance(exc, SessionExpiredError):
                    # The bound server was down long enough to expire the
                    # session: carry on with a fresh one, like a real client.
                    client = site_client(site)
                    yield client.connect_retrying(max_retries=10)
            yield env.timeout(rng.uniform(100.0, 600.0))

    def app():
        setup = deployment.client(VIRGINIA)
        yield setup.connect()
        yield setup.create("/soak", b"")
        for key in KEYS:
            yield setup.create(key, b"")
        yield env.timeout(1000.0)
        nemesis.start()
        procs = [
            env.process(actor(site, random.Random(seed * 1000 + i)))
            for i, site in enumerate(SITES)
        ]
        for proc in procs:
            yield proc
        nemesis.stop_and_repair()
        net.restore_all()
        net.heal_all()
        yield env.timeout(30000.0)  # quiesce
        return True

    run_app(env, app(), timeout_ms=3.6e6)
    return deployment, nemesis, history, indeterminate


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
    with pytest.raises(InvariantViolation) as caught:
        run_lossy_soak(3, request_timeout_ms=1200.0)
    assert caught.value.invariant == "no-double-apply"
    assert " 2 times " in caught.value.detail
