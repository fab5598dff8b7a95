"""Same-instant batching fast path: ordering must match heap semantics.

The kernel drains events scheduled at the *current* instant through two
FIFO buckets (urgent, normal) instead of the heap. These tests pin the
observable contract: dispatch order at one instant is exactly the heap's
lexicographic ``(time, priority, seq)`` order, ``peek``/``step`` see
bucketed entries, and zero-delay chains (``call_soon``) run to
quiescence before time advances.
"""

import pytest

from repro.sim import Environment
from repro.sim.kernel import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Event,
    SimulationError,
)


def test_same_instant_events_dispatch_in_seq_order():
    env = Environment()
    order = []

    def cb(tag):
        order.append(tag)

    env.call_soon(cb, "a")
    env.call_soon(cb, "b")
    env.call_soon(cb, "c")
    env.run()
    assert order == ["a", "b", "c"]


def test_urgent_preempts_normal_at_the_same_instant():
    env = Environment()
    order = []

    def cb(tag):
        order.append(tag)

    env.call_soon(cb, "n1")
    env.call_soon(cb, "u1", priority=PRIORITY_URGENT)
    env.call_soon(cb, "n2")
    env.run()
    # Heap order at one instant: all urgent (seq order), then all normal.
    assert order == ["u1", "n1", "n2"]


def test_urgent_scheduled_during_normal_drain_still_preempts():
    env = Environment()
    order = []

    def normal1(_):
        order.append("n1")
        env.call_soon(lambda _: order.append("u"), None,
                      priority=PRIORITY_URGENT)

    env.call_soon(normal1, None)
    env.call_soon(lambda _: order.append("n2"), None)
    env.run()
    # The urgent callback posted mid-drain runs before the next normal,
    # exactly as (t, 0, seq) sorts before (t, 1, older-seq)... it does
    # not: older normal has smaller seq but larger priority. Heap order
    # is priority-major at equal time.
    assert order == ["n1", "u", "n2"]


def test_zero_delay_chain_runs_to_quiescence_before_time_advances():
    env = Environment()
    seen = []

    def hop(remaining):
        seen.append(env.now)
        if remaining:
            env.call_soon(hop, remaining - 1)

    def later(_):
        seen.append(("later", env.now))

    env.call_in(5.0, later)
    env.call_in(1.0, hop, 4)
    env.run()
    assert seen == [1.0, 1.0, 1.0, 1.0, 1.0, ("later", 5.0)]


def test_zero_delay_timeout_matches_heap_order_with_events():
    env = Environment()
    order = []

    def proc(env):
        yield env.timeout(0.0)
        order.append("timeout-0")

    env.process(proc(env), name="p")
    env.call_soon(lambda _: order.append("soon"), None)
    env.run()
    # The process start (urgent) runs first, then its 0-delay timeout was
    # scheduled *after* call_soon, so FIFO seq order puts "soon" first.
    assert order == ["soon", "timeout-0"]


def test_peek_sees_bucketed_entries():
    env = Environment()
    env.call_in(3.0, lambda _: None)
    assert env.peek() == 3.0
    env.call_soon(lambda _: None)
    assert env.peek() == 0.0
    env.run()
    assert env.peek() == float("inf")


def test_step_drains_buckets_then_heap_then_raises():
    """One entry at a time, spelled ``run(until=event)``: the loop returns
    at the instant the event is decided, before the next entry runs."""
    env = Environment()
    order = []
    first, second = Event(env), Event(env)

    def step(item):
        name, done = item
        order.append(name)
        done.succeed()

    env.call_soon(step, ("now", first))
    env.call_in(1.0, step, ("later", second))
    env.run(until=first)
    assert order == ["now"] and env.now == 0.0
    env.run(until=second)
    assert order == ["now", "later"] and env.now == 1.0
    env.run()  # the two deliveries themselves
    with pytest.raises(SimulationError):
        env.run(until=Event(env))


def test_succeed_at_current_instant_uses_bucket_and_keeps_seq():
    env = Environment()
    seq_before = env._seq
    event = Event(env)
    event.succeed(41)
    # Bucketed scheduling still burns a sequence number — the golden
    # kernel digest includes the final seq, so batching must not change
    # the count.
    assert env._seq == seq_before + 1
    got = []
    event.callbacks.append(lambda ev: got.append(ev.value))
    env.run()
    assert got == [41]


def test_float_underflow_delay_lands_in_the_current_instant_bucket():
    env = Environment()
    order = []
    env.call_in(1.0, lambda _: order.append("t1"))
    env.run()
    assert env.now == 1.0
    # A delay so small it collapses into the current instant must behave
    # exactly like delay 0 (bucket, FIFO after existing same-instant
    # work), not corrupt heap ordering.
    tiny = 1e-300
    assert env.now + tiny == env.now
    env.call_soon(lambda _: order.append("first"), None)
    env.call_in(tiny, lambda _: order.append("second"))
    env.run()
    assert order == ["t1", "first", "second"]


def test_run_until_event_with_only_bucketed_work():
    env = Environment()
    event = Event(env)

    def proc(env):
        yield env.timeout(0.0)
        event.succeed("done")

    env.process(proc(env), name="p")
    assert env.run(until=event) == "done"


def test_urgent_bucket_used_by_succeed_priority():
    env = Environment()
    order = []
    normal = Event(env)
    urgent = Event(env)
    normal.callbacks.append(lambda ev: order.append("normal"))
    urgent.callbacks.append(lambda ev: order.append("urgent"))
    normal.succeed(priority=PRIORITY_NORMAL)
    urgent.succeed(priority=PRIORITY_URGENT)
    env.run()
    assert order == ["urgent", "normal"]
