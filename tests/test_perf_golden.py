"""Golden-digest determinism tests for the optimized hot path.

The kernel/transport/protocol fast paths (``__slots__`` events, pooled
timeouts, consumer-mode stores, the no-fault transport fast path, batched
commit application) were introduced under one invariant: seeded histories
must stay **bit-identical** to the pre-optimization implementation. The
digests below were captured on the unoptimized code; any scheduling,
RNG-stream, or float change in the hot path shows up here as a digest
mismatch.

If one of these fails after an intentional semantic change (new protocol
message, changed timer constant...), re-deriving the constants is expected;
an optimization-only PR must never need to.
"""

import hashlib
import json
from unittest import mock

from repro.sim import AllOf, AnyOf, Environment, Interrupt, Store, seeded_rng

GOLDEN_KERNEL_TRACE = (
    "4aed24ad8baa1a0c96362d4bd750eec5a073aec697ae8d20cb9c8239834e2f16"
)
# Re-pinned when YcsbSpec.value stopped capping payloads at 16 bytes
# (the full value_size now draws that many bytes from each writer's RNG
# stream, shifting every subsequent seeded draw).
GOLDEN_ZK_HISTORY = (
    "4696a07c502c5b3315c6c5d8e6710bc515237879221ae91b1c49c2952dc20e04"
)
GOLDEN_WK_HISTORY = (
    "4f758103200cce204e3f637684953dd232df209167253d4f5906b75cea3c1990"
)
# ZooKeeper on the WPaxos substrate: the client history, and every
# envelope the world sends (when, to whom, which object and slot).
GOLDEN_WPAXOS_HISTORY = (
    "f9af6099d28ab611efae61083852207c38446a85b6a4968627c9eacc936bea40"
)
GOLDEN_WPAXOS_ENVELOPES = (
    "b9fccfb661d493e9f45f052127c1e51fbec12153d6861a4c940460b2546418a6"
)
# Runs under faults: the soak cell's payloads on the `experiments soak
# --small` grid, and the verdicts (trace digests included) of the first
# five generated fuzz cases of seed 7.
GOLDEN_SOAK_PAYLOADS = (
    "23cca0c91857b3e142a08b7afca431000090e1f787467d69cd91f7c096efa515"
)
GOLDEN_FUZZ_PAYLOADS = (
    "8512905add2063f38f4294336b0e7d77c96f1d17b3754fbf51b13f897a4334c8"
)


def kernel_trace_digest():
    """Digest of a kernel-only scenario: resume order, times, values.

    Exercises every scheduling feature the optimizations touched: timeouts
    (pooled and not), store ping-pong, interrupts landing on a sleeping
    process, AnyOf/AllOf, yielding an already-processed event, and a child
    process crash observed by its parent.
    """
    env = Environment()
    rng = seeded_rng(1234, "golden-kernel")
    trace = []

    def ticker(env, name, period, count):
        for i in range(count):
            yield env.timeout(period)
            trace.append((env.now, name, i))

    def pingpong(env, name, mine, peer, rounds):
        for r in range(rounds):
            peer.put((name, r))
            got = yield mine.get()
            trace.append((env.now, name, got))
            yield env.timeout(rng.uniform(0.1, 2.0))

    def sleeper(env, name):
        try:
            yield env.timeout(1000.0)
            trace.append((env.now, name, "overslept"))
        except Interrupt as interrupt:
            trace.append((env.now, name, ("interrupted", interrupt.cause)))
        yield env.timeout(1.5)
        trace.append((env.now, name, "resumed"))

    def interrupter(env, victim, delay, cause):
        yield env.timeout(delay)
        if victim.is_alive:
            victim.interrupt(cause)
        trace.append((env.now, "interrupter", cause))

    def conditions(env, name):
        got = yield AnyOf(env, [env.timeout(5.0, "a"), env.timeout(2.0, "b")])
        trace.append((env.now, name, sorted(got.items())))
        got = yield AllOf(env, [env.timeout(3.0, "c"), env.timeout(7.0, "d")])
        trace.append((env.now, name, sorted(got.items())))
        event = env.event()
        event.succeed("pre-triggered")
        yield env.timeout(1.0)
        value = yield event
        trace.append((env.now, name, value))

    def crasher(env):
        yield env.timeout(11.0)
        raise ValueError("expected-crash")

    def watcher(env, name):
        try:
            yield env.process(crasher(env), name="crasher")
        except ValueError as exc:
            trace.append((env.now, name, str(exc)))

    a, b = Store(env, "a"), Store(env, "b")
    for i in range(3):
        env.process(ticker(env, f"tick{i}", 0.5 + 0.25 * i, 40))
    env.process(pingpong(env, "ping", a, b, 25))
    env.process(pingpong(env, "pong", b, a, 25))
    victim = env.process(sleeper(env, "sleeper"))
    env.process(interrupter(env, victim, 4.25, "wake"))
    env.process(conditions(env, "cond"))
    env.process(watcher(env, "watcher"))
    env.run()
    trace.append(("final", env.now, env._seq))
    payload = json.dumps(trace, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def seeded_ycsb_run(system, tap=None):
    """The seed-77 YCSB run on ``system``; returns its client plans.

    ``tap``, if given, sees every envelope the world sends, from the
    network's construction on.
    """
    from repro.experiments import common
    from repro.workloads.driver import ClientPlan, YcsbSpec, run_ycsb
    from repro.workloads.stats import LatencyRecorder

    class TappedNetwork(common.Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if tap is not None:
                self.tap(tap)

    with mock.patch.object(common, "Network", TappedNetwork):
        world = common.build_world(system, seed=77)
    spec = YcsbSpec(record_count=80, operation_count=400, write_fraction=0.5)
    plans = []
    for i, site in enumerate(("virginia", "california", "frankfurt")):
        plans.append(
            ClientPlan(
                world.client(site), seeded_rng(77, f"client{i}"),
                LatencyRecorder(site),
            )
        )
    run_ycsb(world.env, plans, spec)
    return plans


def history_digest(system):
    """Digest of the client-visible history of a seeded YCSB run.

    Covers the full stack: kernel, transport fast path, the broadcast
    substrate, ZooKeeper (or WanKeeper) server and client. Start/latency
    floats go in via repr, so even a one-ULP timing drift changes the
    digest.
    """
    history = []
    for plan in seeded_ycsb_run(system):
        for s in plan.recorder.samples:
            history.append(
                (plan.recorder.name, s.kind, repr(s.start), repr(s.latency), s.ok)
            )
    payload = json.dumps(history, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def envelope_digest(system):
    """Digest of every envelope sent in the seeded YCSB run: send and
    deliver instants, endpoints, body type, and the body's object and
    slot where it has them. A message added, dropped, reordered or
    retimed anywhere changes it, whether or not a client sees it."""
    sent = []
    seeded_ycsb_run(system, tap=sent.append)
    rows = [
        (repr(e.send_time), repr(e.deliver_time), str(e.src), str(e.dst),
         type(e.body).__name__, getattr(e.body, "obj", None),
         getattr(e.body, "slot", None))
        for e in sent
    ]
    payload = json.dumps(rows)
    return hashlib.sha256(payload.encode()).hexdigest()


def payloads_digest(payloads):
    return hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()


def test_kernel_trace_matches_pre_optimization_golden():
    assert kernel_trace_digest() == GOLDEN_KERNEL_TRACE


def test_zk_history_matches_pre_optimization_golden():
    assert history_digest("zk") == GOLDEN_ZK_HISTORY


def test_wk_history_matches_pre_optimization_golden():
    assert history_digest("wk") == GOLDEN_WK_HISTORY


def test_wpaxos_history_matches_golden():
    assert history_digest("wpaxos") == GOLDEN_WPAXOS_HISTORY


def test_wpaxos_envelopes_match_golden():
    assert envelope_digest("wpaxos") == GOLDEN_WPAXOS_ENVELOPES


def test_soak_cell_payloads_match_golden():
    from repro.runner.cells import cell_soak

    payloads = [
        cell_soak(seed=seed, ops_per_actor=25, key_count=8, quiesce_ms=30000.0)
        for seed in (42, 56)
    ]
    assert payloads_digest(payloads) == GOLDEN_SOAK_PAYLOADS


def test_fuzz_case_payloads_match_golden():
    from repro.fuzz.case import run_fuzz_case
    from repro.fuzz.generate import generate_case

    payloads = [run_fuzz_case(generate_case(7, index)) for index in range(5)]
    assert payloads_digest(payloads) == GOLDEN_FUZZ_PAYLOADS


def test_seeded_runs_are_bit_identical_across_repeats():
    # Same process, fresh environments: the digests must reproduce exactly
    # (guards against hidden global state in pools/caches/fast-path flags).
    assert kernel_trace_digest() == kernel_trace_digest()
    assert history_digest("zk") == history_digest("zk")
