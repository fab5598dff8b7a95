"""``Ticker`` against the generator loop it replaced, and the kernel's
dispatch order against a model of its contract.

Every periodic duty of the stack (zab and wpaxos ticks, the session sweep,
client heartbeats, the WAN tick) used to be a process looping over
``yield env.timeout(interval)`` and stopped by an interrupt; ``Ticker`` is a
callback that re-arms itself and is stopped by a flag. The first half drives
both through one seeded schedule of competing entries, ties included, and
asks for identical ``(now, tag)`` traces. (``tests/test_zab_commit_path.py``
asks the same of whole stacks: its reference peer keeps the generator.)

The second half states ``sim/kernel.py``'s scheduling contract — entries run
in ``(when, lane, seq)`` order — as a model a few lines long and checks the
kernel against it on seeded random programs. It pins behaviour that predates
``Ticker``; nothing in it depends on how the kernel gets there.
"""

import random

import pytest

from repro.sim import Environment, Interrupt, Ticker
from repro.sim.kernel import PRIORITY_NORMAL, PRIORITY_URGENT

# -- Ticker against the generator loop --------------------------------------------


class GeneratorTicker:
    """The loop ``ZabPeer._ticker`` and its four siblings were, verbatim."""

    def __init__(self, env, interval, fn):
        self._alive = True
        self._proc = env.process(self._loop(env, interval, fn))

    def _loop(self, env, interval, fn):
        while self._alive:
            try:
                yield env.timeout(interval)
            except Interrupt:
                return
            if not self._alive:
                return
            fn()

    def stop(self):
        self._alive = False
        if self._proc.is_alive:
            self._proc.interrupt("crash")


INTERVAL = 5.0
GRID = 2.5  # every other grid point ties with a tick
HORIZON = 200.0


def trace_of(ticker_class, seed):
    """One seeded world: three periodic duties whose ticks schedule work of
    their own, a crowd of one-shot entries on the same grid, and a controller
    that stops, restarts and still-born-stops the duties as it goes."""
    env = Environment()
    rng = random.Random(seed)
    trace = []
    log = lambda tag: trace.append((env.now, tag))  # noqa: E731
    tickers = {}
    born = [0]

    def start(name):
        born[0] += 1
        tag = f"{name}#{born[0]}"

        def tick():
            log(f"tick {tag}")
            # Work a tick leaves behind is scheduled before its next wait.
            env.call_soon(log, f"soon after {tag}")
            env.call_in(INTERVAL, log, f"a tick later, {tag}")

        tickers[name] = ticker_class(env, INTERVAL, tick)

    def control(action):
        kind, name = action
        log(f"{kind} {name}")
        if kind == "stop":
            tickers[name].stop()
        elif kind == "restart":  # crash, then restart, in one instant
            tickers[name].stop()
            start(name)
        else:  # stopped in its creation instant
            assert kind == "stillborn"
            start("extra")
            tickers["extra"].stop()

    for name in ("a", "b", "c"):
        start(name)
    for index in range(120):
        at = GRID * rng.randrange(1, int(HORIZON / GRID))
        if rng.random() < 0.5:
            env.call_in(at, log, f"entry {index}")
        else:
            # One that schedules same-instant work in both lanes.
            env.call_in(at, lambda i: (
                log(f"entry {i}"),
                env.call_soon(log, f"normal of {i}"),
                env.call_soon(log, f"urgent of {i}", PRIORITY_URGENT),
            ), index)
    for _ in range(30):
        # Off the tick grid (mid-wait) as often as on it (a tie).
        at = GRID * rng.randrange(1, int(HORIZON / GRID)) + rng.choice((0.0, 1.0))
        kind = rng.choice(("stop", "restart", "restart", "stillborn"))
        env.call_in(at, control, (kind, rng.choice("abc")))
    env.run(until=HORIZON)
    for ticker in tickers.values():
        ticker.stop()
    env.run()  # every stale wake-up finds its flag
    return trace, env


@pytest.mark.parametrize("seed", range(8))
def test_ticker_ticks_where_the_generator_loop_did(seed):
    new, new_env = trace_of(Ticker, seed)
    old, old_env = trace_of(GeneratorTicker, seed)
    for index, (ours, theirs) in enumerate(zip(new, old)):
        assert ours == theirs, f"seed {seed}, entry #{index}"
    assert len(new) == len(old) and new_env.now == old_env.now
    kinds = {tag.split()[0] for _at, tag in new}
    assert {"tick", "stop", "restart", "stillborn"} <= kinds
    assert sum(tag.startswith("tick") for _at, tag in new) > 20
    # Ticks that tie with other entries of their instant, both ways round.
    ties = [
        [tag.split()[0] for at, tag in new if at == instant]
        for instant in {at for at, tag in new if tag.startswith("tick")}
    ]
    assert any(tags.index("tick") > 0 for tags in ties)
    assert any(tags[-1] != "tick" for tags in ties)
    # Stopping a generator costs an interrupt entry and a completion entry
    # (none when it already ended); a flag costs neither.
    assert 0 < old_env._seq - new_env._seq
    assert (old_env._seq - new_env._seq) % 2 == 0


def test_stopped_in_its_creation_instant_never_fires():
    env = Environment()
    ticks = []
    ticker = Ticker(env, 1.0, lambda: ticks.append(env.now))
    ticker.stop()
    env.run(until=10.0)
    assert ticks == [] and env.peek() == float("inf")
    assert env._seq == 1  # the creation entry; no wait was ever armed


def test_stop_mid_wait_and_from_inside_a_tick():
    env = Environment()
    ticks = []
    ticker = Ticker(env, 1.0, lambda: ticks.append(env.now))
    env.call_in(3.5, lambda _: ticker.stop())
    env.run()
    assert ticks == [1.0, 2.0, 3.0] and env.now == 4.0  # the stale wake-up

    def last():
        ticks.append(env.now)
        own.stop()

    own = Ticker(env, 1.0, last)
    env.run()
    assert ticks[-1] == 5.0 and env.now == 5.0  # nothing re-armed


# -- the contract as a model: (when, lane, seq) ----------------------------------

DELAYS = (0.0, 0.0, 0.5, 1.0, 1.5, 2.25)
LATER = ("call_in", "call_at", "timeout")  # arg: a delay; always the normal lane
NOW = ("call_soon", "succeed")  # arg: the lane


def random_program(rng, budget, depth=0):
    """A list of nodes ``(tag, op, arg, children)``: when a node's entry
    runs it logs its tag, then schedules its children in order."""
    nodes = []
    while budget[0] > 0 and rng.random() < (0.9 if depth == 0 else 0.6):
        budget[0] -= 1
        op = rng.choice(LATER + NOW)
        arg = (
            rng.choice(DELAYS) if op in LATER
            else rng.choice((PRIORITY_URGENT, PRIORITY_NORMAL))
        )
        children = random_program(rng, budget, depth + 1) if depth < 6 else []
        nodes.append((budget[0], op, arg, children))
    return nodes


def model(program):
    """What the kernel promises, and all of it: one sequence number per
    scheduled entry; entries run by (when, lane, seq)."""
    pending, trace, seq = [], [], 0

    def schedule(now, nodes):
        nonlocal seq
        for node in nodes:
            _tag, op, arg, _children = node
            seq += 1
            if op in LATER:
                pending.append((now + arg, PRIORITY_NORMAL, seq, node))
            else:
                pending.append((now, arg, seq, node))

    schedule(0.0, program)
    while pending:
        pending.sort()  # seq is unique: nodes are never compared
        when, _lane, _seq, (tag, _op, _arg, children) = pending.pop(0)
        trace.append((when, tag))
        schedule(when, children)
    return trace, seq


def execute(program, horizon_step):
    env = Environment()
    trace = []

    def fire(node):
        trace.append((env.now, node[0]))
        schedule(node[3])

    def schedule(nodes):
        for node in nodes:
            _tag, op, arg, _children = node
            if op == "call_in":
                env.call_in(arg, fire, node)
            elif op == "call_at":
                env.call_at(env.now + arg, fire, node)
            elif op == "call_soon":
                env.call_soon(fire, node, priority=arg)
            elif op == "timeout":
                env.timeout(arg).callbacks.append(lambda _e, n=node: fire(n))
            else:
                event = env.event()
                event.callbacks.append(lambda _e, n=node: fire(n))
                event.succeed(priority=arg)

    schedule(program)
    if horizon_step is None:
        env.run()
    while env.peek() != float("inf"):
        env.run(until=env.now + horizon_step)
    return trace, env._seq


@pytest.mark.parametrize("block", range(8))
def test_dispatch_order_is_when_lane_seq(block):
    """240 seeded programs, each run dry in one call and in horizon steps."""
    sizes = []
    for seed in range(block * 30, block * 30 + 30):
        program = random_program(random.Random(seed), [60])
        expected = model(program)
        sizes.append(expected[1])
        assert execute(program, None) == expected, f"seed {seed}"
        assert execute(program, 0.75) == expected, f"seed {seed}, stepped"
    assert max(sizes) > 30
