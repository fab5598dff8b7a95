"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Store,
    StoreClosed,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="tick")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["tick"]


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "slow", 10.0))
    env.process(proc(env, "fast", 1.0))
    env.process(proc(env, "mid", 5.0))
    env.run()
    assert order == ["fast", "mid", "slow"]


def test_equal_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(3.0)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value():
    env = Environment()

    def inner(env):
        yield env.timeout(2.0)
        return 42

    def outer(env, results):
        value = yield env.process(inner(env))
        results.append(value)

    results = []
    env.process(outer(env, results))
    env.run()
    assert results == [42]


def test_run_until_time_horizon():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert env.now == 5.5


def test_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 7.0


def test_run_until_past_raises():
    env = Environment()
    env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=0.5)


def test_event_succeed_and_value():
    env = Environment()
    event = env.event()
    got = []

    def waiter(env, event):
        value = yield event
        got.append(value)

    def firer(env, event):
        yield env.timeout(3.0)
        event.succeed("payload")

    env.process(waiter(env, event))
    env.process(firer(env, event))
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env, event):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env, event))
    event.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("exploded")

    env.process(bad(env))
    with pytest.raises(ValueError, match="exploded"):
        env.run()


def test_watched_process_exception_delivered_to_waiter():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("exploded")

    def watcher(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(watcher(env))
    env.run()
    assert caught == ["exploded"]


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("overslept")
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 3.0, "wake up")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def worker(env):
        try:
            yield env.timeout(50.0)
        except Interrupt:
            pass
        yield env.timeout(2.0)
        log.append(env.now)

    def boss(env, worker_proc):
        yield env.timeout(10.0)
        worker_proc.interrupt()

    worker_proc = env.process(worker(env))
    env.process(boss(env, worker_proc))
    env.run()
    assert log == [12.0]


def test_any_of_triggers_on_first():
    env = Environment()
    results = []

    def proc(env):
        got = yield AnyOf(env, [env.timeout(5.0, "a"), env.timeout(2.0, "b")])
        results.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert results == [(2.0, {1: "b"})]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        got = yield AllOf(env, [env.timeout(5.0, "a"), env.timeout(2.0, "b")])
        results.append((env.now, got))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, {0: "a", 1: "b"})]


def test_yield_already_triggered_event():
    env = Environment()
    results = []

    def proc(env):
        event = env.event()
        event.succeed("early")
        yield env.timeout(1.0)
        value = yield event
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["early"]


def test_many_sequential_timeouts_no_recursion():
    env = Environment()

    def proc(env):
        for _ in range(10000):
            yield env.timeout(0.001)
        return env.now

    result = env.run(until=env.process(proc(env)))
    assert result == pytest.approx(10.0, rel=1e-6)


def test_store_put_then_get():
    env = Environment()
    got = []

    def consumer(env, store):
        item = yield store.get()
        got.append(item)

    store = Store(env)
    store.put("x")
    env.process(consumer(env, store))
    env.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    env = Environment()
    got = []

    def consumer(env, store):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env, store):
        yield env.timeout(4.0)
        store.put("y")

    store = Store(env)
    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert got == [(4.0, "y")]


def test_store_fifo_ordering():
    env = Environment()
    got = []

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    store = Store(env)
    for item in [1, 2, 3]:
        store.put(item)
    env.process(consumer(env, store))
    env.run()
    assert got == [1, 2, 3]


def test_store_getters_served_in_order():
    env = Environment()
    got = []

    def consumer(env, store, name):
        item = yield store.get()
        got.append((name, item))

    store = Store(env)
    env.process(consumer(env, store, "first"))
    env.process(consumer(env, store, "second"))
    env.run(until=1.0)
    store.put("a")
    store.put("b")
    env.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_close_fails_getters():
    env = Environment()
    failures = []

    def consumer(env, store):
        try:
            yield store.get()
        except StoreClosed:
            failures.append(env.now)

    store = Store(env, name="inbox")
    env.process(consumer(env, store))
    env.run(until=2.0)
    store.close()
    env.run()
    assert failures == [2.0]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert store.try_get() is None


def test_store_close_discards_items_and_reopen():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.close()
    assert len(store) == 0
    store.reopen()
    store.put(2)
    assert store.try_get() == 2


def test_determinism_same_seed_same_trace():
    from repro.sim import seeded_rng

    def run_once():
        env = Environment()
        rng = seeded_rng(42, "test")
        trace = []

        def proc(env):
            for _ in range(20):
                yield env.timeout(rng.uniform(0.1, 2.0))
                trace.append(round(env.now, 9))

        env.process(proc(env))
        env.run()
        return trace

    assert run_once() == run_once()


def test_rng_streams_independent():
    from repro.sim import RngRegistry

    registry = RngRegistry(seed=7)
    a1 = [registry.stream("a").random() for _ in range(5)]
    registry.stream("b").random()  # consuming b must not disturb a
    registry2 = RngRegistry(seed=7)
    a2 = [registry2.stream("a").random() for _ in range(5)]
    assert a1 == a2


def test_rng_fork_differs():
    from repro.sim import RngRegistry

    registry = RngRegistry(seed=7)
    forked = registry.fork("salt")
    assert registry.stream("x").random() != forked.stream("x").random()


# -- optimization-specific behaviour ------------------------------------------


def test_interrupt_does_not_leak_callbacks_on_abandoned_event():
    env = Environment()
    gate = Event(env)  # never triggered

    def waiter(env):
        while True:
            try:
                yield gate
            except Interrupt:
                continue

    proc = env.process(waiter(env), name="waiter")
    env.run(until=1.0)
    for _ in range(25):
        proc.interrupt("again")
        env.run(until=env.now + 1.0)
    # Each interrupt must unregister the stale wait before the process
    # re-registers: exactly one live callback, no leaked stale entries.
    assert len(gate.callbacks) == 1


def test_interrupting_non_latest_waiter_still_unregisters():
    env = Environment()
    gate = Event(env)
    woken = []

    def waiter(env, name):
        try:
            value = yield gate
            woken.append((name, value))
        except Interrupt:
            woken.append((name, "interrupted"))

    first = env.process(waiter(env, "first"), name="first")
    env.process(waiter(env, "second"), name="second")
    env.run(until=1.0)
    # `first` registered before `second`, so its callback is not the tail:
    # removal takes the slow path; `second` then pops from the tail.
    first.interrupt()
    env.run(until=2.0)
    gate.succeed("go")
    env.run()
    assert woken == [("first", "interrupted"), ("second", "go")]


def test_call_in_fires_in_time_then_fifo_order():
    env = Environment()
    out = []
    env.call_in(5.0, out.append, "b")
    env.call_in(1.0, out.append, "a")
    env.call_in(5.0, out.append, "c")
    env.run()
    assert out == ["a", "b", "c"]
    assert env.now == 5.0


def test_call_in_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.call_in(-1.0, lambda _arg: None)


def test_store_consumer_receives_items_one_at_a_time():
    env = Environment()
    store = Store(env, name="inbox")
    seen = []

    def consumer(item):
        # The next buffered item is only scheduled after this returns:
        # at most one delivery in flight, like the pump it replaces.
        seen.append((env.now, item, len(store)))

    store.consume(consumer)
    store.put("x")
    store.put("y")  # buffered: "x" is already in flight
    assert len(store) == 1
    env.run()
    assert [item for _t, item, _n in seen] == ["x", "y"]
    assert len(store) == 0


def test_store_consume_rejects_pending_state():
    env = Environment()
    store = Store(env)
    store.put("stale")
    with pytest.raises(SimulationError):
        store.consume(lambda item: None)


def test_store_consumer_close_discards_buffered_items():
    env = Environment()
    store = Store(env)
    seen = []
    store.consume(seen.append)
    store.put("in-flight")
    store.put("buffered-1")
    store.put("buffered-2")
    store.close()
    env.run()
    # The already-scheduled delivery still arrives (a pump one step behind
    # would have seen it too); the buffered backlog dies with the store.
    assert seen == ["in-flight"]
    store.reopen()
    store.put("after-restart")
    env.run()
    assert seen == ["in-flight", "after-restart"]
