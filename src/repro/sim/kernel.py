"""Core discrete-event simulation kernel.

The kernel follows the SimPy programming model: simulation actors are Python
generators ("processes") that ``yield`` events; the environment advances a
virtual clock from event to event. Unlike SimPy, the implementation here is
purpose-built for protocol simulation:

* strict determinism — ties in the event queue are broken by a monotonically
  increasing sequence number, never by object identity;
* cheap interrupts — lease expiry and failure injection interrupt waiting
  processes without tearing down the kernel;
* no real time — ``Environment.run`` returns when the queue is empty or the
  requested horizon is reached.

Time is a ``float`` in **milliseconds**: WAN round-trips in the paper are
tens of milliseconds, and milliseconds keep all constants readable.

The scheduling contract is small enough to hold in the head, and the
comment above :meth:`Environment.call_in` states all of it: **one clock**
(``env.now``, a plain attribute only :meth:`Environment.run` writes), **two
same-instant lanes** (anything due now joins the urgent or the normal FIFO
and never touches the heap), **one heap shape** (``(when, seq, entry)`` for
anything due later), **one order** (``(when, lane, seq)``) and **one
periodic timer** (:class:`Ticker`). ``net/transport.py`` and
``sim/store.py`` inline the scheduling lines on the message path.

An entry is either an :class:`Event` (its callbacks run) or a bare
``(fn, arg)`` tuple (``fn(arg)`` runs): :meth:`Environment.call_in`,
``call_at`` and ``call_soon`` schedule the latter with no Event, generator
or waiter bookkeeping, which is what the message path and timer guards use.
All event classes carry ``__slots__``; callback cancellation is O(1) in the
common case and a stale wake-up that slips through is defused by the guard
in :meth:`Process._resume`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Ticker",
    "Timeout",
]

# The two same-instant lanes. URGENT is used for process resumption, so that
# a process that was waiting on an event runs before anything else scheduled
# for the same instant; nothing due later can name a lane.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_INF = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the kernel (double triggers, bad yields...)."""


class Interrupt(Exception):
    """Raised inside a process that another actor interrupted.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when given a value (or an
    exception), and is *processed* once its callbacks have run. Processes
    wait on an event by yielding it.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        if not self._ok:
            raise SimulationError("event failed; no value")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        # Delivery is always at the current instant (Environment._post,
        # inlined: this is the reply path of every client op).
        env._seq += 1
        if priority:
            env._normal_now.append(self)
        else:
            env._urgent_now.append(self)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._exception = exception
        self.env._post(self, priority)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: deliver through the queue at the current
            # instant rather than synchronously, so that a process yielding
            # processed events in a loop cannot recurse unboundedly.
            self.env._post((callback, self), PRIORITY_URGENT)
        else:
            callbacks.append(callback)

    def _remove_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks:
            # O(1) when the callback is the most recently registered one
            # (the overwhelmingly common cancellation pattern); a stale
            # delivery that slips past is defused by Process._resume.
            if callbacks[-1] is callback:
                callbacks.pop()
            else:
                try:
                    callbacks.remove(callback)
                except ValueError:
                    pass


class Timeout(Event):
    """An event that triggers after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = value
        self.delay = delay
        env._seq += 1
        when = env.now + delay
        if when == env.now:
            # Zero delay (or one that underflows float addition): fires at
            # the current instant — bucket, don't heap.
            env._normal_now.append(self)
        else:
            heappush(env._queue, (when, env._seq, self))


class _Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._on_target)
        env._post(self, PRIORITY_URGENT)


class Process(Event):
    """A running generator. The process is itself an event that triggers
    when the generator returns (value = return value) or raises."""

    __slots__ = ("_generator", "_gen_send", "_gen_throw", "_on_target", "name",
                 "_target", "_defused")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process body must be a generator")
        self._generator = generator
        self._gen_send = generator.send
        self._gen_throw = generator.throw
        # The one bound-method object used to wait on every target: created
        # once so registration allocates nothing and cancellation can use an
        # identity check.
        self._on_target = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = _Initialize(env, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: raise :class:`Interrupt` inside it.

        Interrupting a dead process is an error; interrupting a process that
        is itself the current actor is not supported (use exceptions).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self.env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._exception = Interrupt(cause)
        event.callbacks.append(self._resume_interrupt)
        self.env._post(event, PRIORITY_URGENT)

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # process finished before the interrupt was delivered
        target = self._target
        # Detach from the abandoned target *before* unregistering so that a
        # re-entrant wake-up during cleanup cannot observe a half-detached
        # process. Any stale delivery that was already queued is defused by
        # the `_target is not event` guard in _resume.
        self._target = None
        if target is not None:
            target._remove_callback(self._on_target)
        # Point _target at the interrupt event so _resume's stale-wake
        # guard passes; _resume immediately clears it again.
        self._target = event
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Trampoline: the awaited event triggered, step the generator.

        The stale-wake guard (an interrupt moved the process off this
        event before the queued delivery arrived) and the generator step
        share one frame — this is the hottest method on a Process, so the
        former ``_step`` helper is folded in rather than called.
        """
        if self._target is not event:
            return
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_target = self._gen_send(event._value)
            else:
                exc = event._exception
                assert exc is not None
                next_target = self._gen_throw(exc)
        except StopIteration as stop:
            env._active_process = None
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            env._active_process = None
            self._finish_fail(exc)
            return
        env._active_process = None

        if not isinstance(next_target, Event):
            crash = SimulationError(
                f"process {self.name} yielded non-event {next_target!r}"
            )
            self._generator.close()
            self._finish_fail(crash)
            return
        if next_target is self:
            crash = SimulationError(f"process {self.name} waited on itself")
            self._generator.close()
            self._finish_fail(crash)
            return
        self._target = next_target
        callbacks = next_target.callbacks
        if callbacks is None:
            env._post((self._on_target, next_target), PRIORITY_URGENT)
        else:
            callbacks.append(self._on_target)

    def _finish_ok(self, value: Any) -> None:
        self._ok = True
        self._value = value
        self.env._post(self, PRIORITY_URGENT)

    def _finish_fail(self, exc: BaseException) -> None:
        self._ok = False
        self._exception = exc
        self._defused = False
        trace = self.env.trace
        if trace is not None:
            trace.emit(self.env.now, "kernel", "process-fail", self.name,
                       {"error": repr(exc)})
        self.env._post(self, PRIORITY_URGENT)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events.

    A child counts as *done* only once its callbacks fire (i.e. at the
    simulated instant it is delivered), not merely when its value is decided
    — a :class:`Timeout` decides its value at construction but fires later.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = [False] * len(self._events)
        if not self._events:
            self.succeed({}, priority=PRIORITY_URGENT)
            return
        for index, event in enumerate(self._events):
            event._add_callback(
                lambda fired, index=index: self._on_child(index, fired)
            )

    def _on_child(self, index: int, event: Event) -> None:
        if self._ok is not None:
            return
        self._done[index] = True
        if not event._ok:
            assert event._exception is not None
            # Mark crashed child processes handled so run() doesn't re-raise.
            if hasattr(event, "_defused"):
                event._defused = True  # type: ignore[attr-defined]
            self.fail(event._exception, priority=PRIORITY_URGENT)
            return
        self._check()

    def _check(self) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self._events)
            if self._done[index] and event._ok
        }


class AnyOf(_Condition):
    """Triggers as soon as any child event fires.

    The value is a dict mapping the index of each already-fired child to its
    value.
    """

    __slots__ = ()

    def _check(self) -> None:
        if any(self._done):
            self.succeed(self._results(), priority=PRIORITY_URGENT)


class AllOf(_Condition):
    """Triggers once every child event has fired."""

    __slots__ = ()

    def _check(self) -> None:
        if all(self._done):
            self.succeed(self._results(), priority=PRIORITY_URGENT)


class Environment:
    """The simulation environment: clock + event queue + process factory."""

    __slots__ = ("now", "_queue", "_seq", "_active_process",
                 "_urgent_now", "_normal_now", "trace")

    def __init__(self, initial_time: float = 0.0):
        #: Current virtual time in milliseconds; written only by run().
        self.now = float(initial_time)
        self._queue: List = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._urgent_now: deque = deque()
        self._normal_now: deque = deque()
        #: Optional structured trace buffer (repro.trace.TraceBuffer); the
        #: kernel only reports rare events (process failures) to it.
        self.trace = None

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    #
    # The contract, in full. To schedule ``entry`` (an Event, or a bare
    # ``(fn, arg)`` tuple) bump ``_seq``, then: due now, append it to
    # ``_normal_now`` (``_urgent_now`` for the urgent lane, which only
    # same-instant entries can name); due later,
    # ``heappush(_queue, (when, _seq, entry))``. Nothing due now is ever
    # pushed on the heap. run() drains the urgent lane, then one normal
    # entry, re-checking urgent between normal entries; when both are empty
    # it pops the heap, sets ``now`` and moves every other heap entry of the
    # new instant to the normal lane. Those predate (seq-wise) anything
    # their dispatch appends, so the run order is ``(when, lane, seq)``.
    # net/transport.py and sim/store.py inline exactly these lines on the
    # message path, and tests/test_ticker.py states them as a model. One
    # shortcut keeps that order: an entry run() dispatched (so the urgent
    # lane is empty) whose last act is to append one entry to an empty
    # normal lane may run that entry in place instead, since run() would
    # pop it next (Network._deliver does this for an idle consumer;
    # ``_seq`` still counts it).

    def _post(self, entry: Any, priority: int) -> None:
        self._seq += 1
        if priority:
            self._normal_now.append(entry)
        else:
            self._urgent_now.append(entry)

    def call_in(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run after ``delay`` ms.

        The cheapest way to defer work: no :class:`Event`, no generator, no
        waiter bookkeeping — a single tuple on the heap. Fire-and-forget
        (cannot be cancelled; make ``fn`` check liveness itself), so use it
        for guards and deliveries whose staleness is cheap to detect.
        """
        if delay < 0:
            raise SimulationError(f"negative call_in delay: {delay!r}")
        self._seq += 1
        when = self.now + delay
        if when == self.now:
            self._normal_now.append((fn, arg))
        else:
            heappush(self._queue, (when, self._seq, (fn, arg)))

    def call_soon(
        self,
        fn: Callable[[Any], None],
        arg: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn(arg)`` at the current instant: ``call_in(0, ...)``
        minus the delay arithmetic — one deque append, no heap traffic.
        The store and transport layers use it for their zero-delay
        delivery chains."""
        self._seq += 1
        if priority:
            self._normal_now.append((fn, arg))
        else:
            self._urgent_now.append((fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute time ``when``.

        The absolute-time twin of :meth:`call_in`, for callers that
        computed an exact instant: no ``when - now`` round trip (which
        can drift by one ULP in float), no Event, no generator. The
        fleet tier's idle-gap fast-forward leans on this: a driver that
        scanned ahead over quiescent ticks schedules its next wake (and
        every arrival it found) at exact instants, touching the kernel
        once per *busy* tick instead of once per tick.

        Scheduling in the past is an error; ``when == now`` lands in the
        normal same-instant lane like :meth:`call_soon`.
        """
        if when < self.now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self.now!r})"
            )
        self._seq += 1
        if when == self.now:
            self._normal_now.append((fn, arg))
        else:
            heappush(self._queue, (when, self._seq, (fn, arg)))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if self._urgent_now or self._normal_now:
            return self.now
        return self._queue[0][0] if self._queue else _INF

    def run(self, until: Optional[float] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time horizon (run until the clock reaches it) or an
        :class:`Event` (run until the event triggers, returning its value).
        With no argument, run until the event queue drains.
        """
        stop: Optional[Event] = None
        horizon = _INF
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self.now})"
                )

        # The only dispatch loop. Bound methods are hoisted out of it: each
        # saves an attribute or global lookup per entry, and the loop runs
        # millions of times per figure.
        queue = self._queue
        urgent = self._urgent_now
        normal = self._normal_now
        urgent_pop = urgent.popleft
        normal_pop = normal.popleft
        normal_push = normal.append
        pop = heappop
        tuple_t = tuple
        while True:
            if stop is not None and stop._ok is not None:
                # Decided, not necessarily processed: return before the
                # next entry runs.
                break
            if urgent:
                event = urgent_pop()
            elif normal:
                event = normal_pop()
            elif queue:
                if queue[0][0] > horizon:
                    break
                when, _seq, event = pop(queue)
                self.now = when
                while queue and queue[0][0] == when:
                    normal_push(pop(queue)[2])
            else:
                break
            if type(event) is tuple_t:
                event[0](event[1])
                continue
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if (
                not event._ok
                and event._exception is not None
                and not callbacks
                and not getattr(event, "_defused", True)
            ):
                # A process crashed and nobody was waiting on it: surface it.
                raise event._exception

        if stop is None:
            if horizon != _INF:
                self.now = horizon
            return None
        if stop._ok is None:
            raise SimulationError("run() ran out of events before stop event")
        if not stop._ok:
            assert stop._exception is not None
            raise stop._exception
        return stop._value


class Ticker:
    """Calls ``fn()`` every ``interval`` ms until :meth:`stop`.

    The periodic timer behind every heartbeat, election tick and session
    sweep. Its sequence numbers are those of a process looping over
    ``yield env.timeout(interval); fn()`` — one urgent same-instant entry at
    creation, then one heap entry per wait, armed after ``fn`` returns —
    which is where the golden digests pin every tick against whatever else
    is due at its instant. ``stop()`` is a flag: the wake-up already on the
    heap finds it and does nothing.
    """

    __slots__ = ("_env", "_interval", "_fn", "_stopped")

    def __init__(self, env: Environment, interval: float, fn: Callable[[], None]):
        self._env = env
        self._interval = interval
        self._fn = fn
        self._stopped = False
        env.call_soon(self._wake, False, PRIORITY_URGENT)

    def stop(self) -> None:
        self._stopped = True

    def _wake(self, tick: bool) -> None:
        if self._stopped:
            return
        if tick:
            self._fn()
            if self._stopped:
                return
        self._env.call_in(self._interval, self._wake, True)
