"""The online invariant sentinel: deliberate violations must be caught.

The soak/nemesis suites prove the sentinel stays silent on correct
executions; these tests prove it actually *fires* — a deliberately
injected double token grant and a forced double apply each raise
:class:`InvariantViolation` with the trace tail attached, pointing at the
divergent event.
"""

import pytest

from repro.invariants import InvariantSentinel, InvariantViolation
from repro.net import CALIFORNIA, VIRGINIA
from repro.trace import TraceBuffer
from repro.wankeeper import build_wankeeper_deployment
from repro.wankeeper.messages import TokenGrant, WanTxn
from repro.wankeeper.server import HUB
from repro.zab.zxid import Zxid
from repro.zk.ops import SetDataOp, Txn

from tests.support import fresh_world, plain_zk, run_app


def _wankeeper(env, net, topo, **kwargs):
    deployment = build_wankeeper_deployment(env, net, topo, **kwargs)
    deployment.start()
    deployment.stabilize()
    return deployment


def test_sentinel_attached_by_default_in_tests():
    env, topo, net = fresh_world(seed=21)
    deployment = _wankeeper(env, net, topo)
    assert deployment.sentinel is not None  # tests/conftest.py sets the env
    assert deployment.sentinel.trace is env.trace
    for server in deployment.servers:
        assert server.sentinel is deployment.sentinel
        assert server.peer.sentinel is deployment.sentinel


def test_injected_double_grant_is_caught_with_trace_tail():
    """Inject a hub-side double grant: grant /k to Virginia while the
    California site leader still owns it. The sentinel must abort the
    simulation at the exact commit that applies the bogus grant."""
    env, topo, net = fresh_world(seed=23)
    deployment = _wankeeper(
        env, net, topo, initial_tokens={"/k": CALIFORNIA}
    )
    hub = deployment.hub_leader
    assert hub is not None and hub.site == VIRGINIA
    assert "/k" in deployment.site_leader(CALIFORNIA).site_tokens.owned

    # Fabricate a hub-serialized WanTxn that (wrongly) carries a grant of
    # the still-owned key to the hub's own site.
    bogus = Txn(
        session_id="inject#1",
        cxid=1,
        origin=hub.client_addr,
        op=SetDataOp("/k", b"x"),
        origin_site=VIRGINIA,
    )
    hub._propose(
        WanTxn(
            txn=bogus,
            origin_site=VIRGINIA,
            serialized_at=HUB,
            grants=(TokenGrant("/k", VIRGINIA),),
        )
    )
    with pytest.raises(InvariantViolation) as caught:
        env.run(until=env.now + 10000.0)
    violation = caught.value
    assert violation.invariant == "single-token-ownership"
    assert "/k" in violation.detail
    assert "california" in violation.detail
    # The failure message carries the trace tail, whose newest events are
    # the divergence: the bogus grant being applied.
    message = str(violation)
    assert "trace events" in message
    assert "token-grant" in message
    assert violation.trace_tail, "expected trace events attached"


def test_forced_double_apply_is_caught():
    """Clear the at-most-once table between two commits of the same
    request: the second apply is a real double apply and must raise."""
    env, topo, net = fresh_world(seed=25)
    deployment = plain_zk(env, net, topo)
    leader = deployment.leader
    client = deployment.client(VIRGINIA)

    def app():
        yield client.connect()
        yield client.create("/twice", b"v0")
        txn = Txn(
            session_id=client.session_id,
            cxid=9999,
            origin=leader.client_addr,
            op=SetDataOp("/twice", b"v1"),
        )
        leader._route_write(txn)
        yield env.timeout(2000.0)
        # Defeat the at-most-once layer on every replica, then replay.
        for server in deployment.servers:
            server.apply_counts.clear()
        leader._route_write(txn)
        yield env.timeout(2000.0)
        return True

    with pytest.raises(InvariantViolation) as caught:
        run_app(env, app())
    violation = caught.value
    assert violation.invariant == "no-double-apply"
    assert "cxid=9999" in violation.detail
    message = str(violation)
    assert "trace events" in message
    assert "apply" in message


def test_zxid_monotonicity_unit():
    sentinel = InvariantSentinel(trace=TraceBuffer())

    class FakePeer:
        name = "fake.zab"
        config = object()

    peer = FakePeer()
    sentinel.on_peer_commit(peer, Zxid(1, 5), payload="a")
    with pytest.raises(InvariantViolation) as caught:
        sentinel.on_peer_commit(peer, Zxid(1, 4), payload="b")
    assert caught.value.invariant == "zxid-monotonic"


def test_committed_prefix_unit():
    sentinel = InvariantSentinel()

    class FakePeer:
        def __init__(self, name, config):
            self.name = name
            self.config = config

    config = object()
    sentinel.on_peer_commit(FakePeer("a.zab", config), Zxid(1, 1), payload="x")
    with pytest.raises(InvariantViolation) as caught:
        sentinel.on_peer_commit(
            FakePeer("b.zab", config), Zxid(1, 1), payload="y"
        )
    assert caught.value.invariant == "committed-prefix"


def test_sentinel_disabled_without_env(monkeypatch):
    monkeypatch.setenv("REPRO_SENTINEL", "0")
    env, topo, net = fresh_world(seed=27)
    deployment = build_zk_quiet(env, net, topo)
    assert deployment.sentinel is None
    assert env.trace is None
    for server in deployment.servers:
        assert server.sentinel is None
        assert server._trace is None


def build_zk_quiet(env, net, topo):
    from repro.zk import build_zk_deployment
    from repro.net import CALIFORNIA, FRANKFURT, VIRGINIA

    return build_zk_deployment(
        env, net, topo,
        leader_site=VIRGINIA,
        voting_sites=(VIRGINIA, CALIFORNIA, FRANKFURT),
    )


# --- sentinel under overlapping fault windows (fuzz-harness schedules) ----

def _fuzz_spec(schedule, seed=1234):
    """A minimal hand-written fuzz-case spec with an explicit schedule."""
    return {
        "v": 1, "seed": seed,
        "topology": {
            "sites": 3,
            "delays": {"s0|s1": 30.0, "s0|s2": 70.0, "s1|s2": 45.0},
            "local_ms": 0.25, "jitter": 0.0,
        },
        "deployment": {
            "voters": 3, "l2": 0, "read_mode": "local",
            "lease_ms": 2000.0, "pin": [[0, 1], [1, 2]],
        },
        "workload": {
            "keys": 3, "actors": 1, "duration_ms": 9000.0,
            "write_fraction": 0.5, "pace_ms": [50.0, 200.0],
            "request_timeout_ms": 4000.0,
        },
        "ambient": {"loss": 0.0, "duplicate": 0.0},
        "schedule": schedule,
        "horizon_ms": 120000.0, "quiesce_ms": 12000.0, "bug": None,
    }


def test_sentinel_quiet_under_overlapping_crash_restart_windows():
    # Two site leaders crash with overlapping dwell windows, so the second
    # crash and the first restart interleave; the sentinel (attached
    # unconditionally by the fuzz harness) must stay quiet and the
    # deployment must converge.
    from repro.fuzz.case import run_fuzz_case

    payload = run_fuzz_case(_fuzz_spec([
        {"at": 1000.0, "kind": "crash", "site": 1, "victim": 0, "dwell": 5000.0},
        {"at": 2500.0, "kind": "crash", "site": 2, "victim": 0, "dwell": 5000.0},
    ]))
    assert payload["status"] == "ok", payload["invariant"]
    assert payload["nemesis"]["events"] == {"crash": 2, "restart": 2}
    assert payload["converged"] is True
    assert payload["token_conflicts"] == 0


def test_sentinel_quiet_across_oneway_partition_repair_windows():
    # Asymmetric partitions whose repair windows overlap: replies flow one
    # way while requests are dropped the other, then heal mid-flight.
    from repro.fuzz.case import run_fuzz_case

    payload = run_fuzz_case(_fuzz_spec([
        {"at": 1000.0, "kind": "oneway-partition", "a": 0, "b": 1, "dwell": 4000.0},
        {"at": 2000.0, "kind": "oneway-partition", "a": 1, "b": 2, "dwell": 4000.0},
    ]))
    assert payload["status"] == "ok", payload["invariant"]
    assert payload["nemesis"]["events"] == {
        "oneway-heal": 2, "oneway-partition": 2,
    }
    assert payload["converged"] is True
    assert payload["token_conflicts"] == 0
