"""Closed-loop YCSB client driver.

Mirrors the paper's setup: "the YCSB benchmark client with the synchronous
ZooKeeper client API" (§IV-A) — each client issues one operation at a time,
reads via ``get_data`` and updates via ``set_data``, against a preloaded
record table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.sim.kernel import Environment
from repro.workloads.choosers import KeyChooser, UniformChooser, ZipfianChooser
from repro.workloads.stats import LatencyRecorder
from repro.zk.client import ZkClient
from repro.zk.errors import ConnectionLossError, ZkError

__all__ = [
    "ClientPlan", "YcsbSpec", "drive", "load_records", "run_ycsb", "ycsb_client",
]

#: The paper's records: 100-byte values, keys drawn Zipfian at 0.99 (§IV-A).
VALUE_SIZE = 100
ZIPF_THETA = 0.99


@dataclass
class YcsbSpec:
    """Parameters of one YCSB run (defaults follow §IV-A)."""

    record_count: int = 1000
    operation_count: int = 10000
    write_fraction: float = 0.5
    table: str = "/usertable"
    key_prefix: str = "user"

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.record_count < 1 or self.operation_count < 0:
            raise ValueError("counts must be positive")

    def key(self, index: int) -> str:
        return f"{self.table}/{self.key_prefix}{index:06d}"

    def default_chooser(self) -> KeyChooser:
        return ZipfianChooser(self.record_count, ZIPF_THETA)

    def value(self, rng: random.Random) -> bytes:
        # Bit-compatible unrolling of ``bytes(rng.randrange(256) for ...)``:
        # randrange(256) draws getrandbits(9) and rejects values >= 256, so
        # replaying that exact sequence leaves every seeded stream unchanged
        # while skipping two wrapper frames per byte. The full VALUE_SIZE is
        # honored (the paper's records are 100 bytes); an earlier perf pass
        # silently capped payloads at 16 bytes, which under-charged every
        # write's RNG stream and record size.
        getrandbits = rng.getrandbits
        out = bytearray(VALUE_SIZE)
        for i in range(len(out)):
            r = getrandbits(9)
            while r >= 256:
                r = getrandbits(9)
            out[i] = r
        return bytes(out)


def load_records(client: ZkClient, spec: YcsbSpec, indices: Optional[Sequence[int]] = None):
    """Generator process: create the record table through ``client``."""
    from repro.zk.errors import NodeExistsError

    # Create the table path (and any intermediate ancestors).
    components = spec.table.strip("/").split("/")
    for depth in range(1, len(components) + 1):
        ancestor = "/" + "/".join(components[:depth])
        try:
            yield client.create(ancestor, b"")
        except NodeExistsError:
            pass  # another loader already created it
    for index in indices if indices is not None else range(spec.record_count):
        yield client.create(spec.key(index), b"\x00" * VALUE_SIZE)


def ycsb_client(
    env: Environment,
    client: ZkClient,
    spec: YcsbSpec,
    rng: random.Random,
    recorder: LatencyRecorder,
    chooser: Optional[KeyChooser] = None,
    operation_count: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    max_retries: int = 3,
):
    """Generator process: run the closed-loop operation mix.

    Operations that hit a connection loss are retried up to ``max_retries``
    times (recorded as one sample with the total elapsed time, as YCSB's
    client does); other errors are recorded as failures. Retries go through
    the client's stable-cxid retry layer: every attempt of one logical
    operation reuses the same cxid, so a write whose first attempt timed
    out but committed is answered from the server's reply cache instead of
    being applied a second time.
    """
    chooser = chooser or spec.default_chooser()
    total = operation_count if operation_count is not None else spec.operation_count
    # Key strings are pure functions of the index; format each once instead
    # of per operation (choosers may exceed spec.record_count, hence the
    # bounds-checked fallback).
    keys = [spec.key(i) for i in range(spec.record_count)]
    for _ in range(total):
        if deadline_ms is not None and env.now >= deadline_ms:
            break
        index = chooser.choose(rng)
        path = keys[index] if index < len(keys) else spec.key(index)
        is_write = rng.random() < spec.write_fraction
        start = env.now
        ok = True
        try:
            if is_write:
                yield client.set_data_retrying(
                    path, spec.value(rng), max_retries=max_retries
                )
            else:
                yield client.get_data_retrying(path, max_retries=max_retries)
        except (ConnectionLossError, ZkError):
            ok = False
        recorder.record(
            "write" if is_write else "read", start, env.now - start, ok=ok
        )


@dataclass
class ClientPlan:
    """One closed-loop client of :func:`run_ycsb`."""

    client: ZkClient
    rng: random.Random
    recorder: LatencyRecorder
    chooser: Optional[KeyChooser] = None
    operation_count: Optional[int] = None


def run_ycsb(
    env: Environment,
    plans: List[ClientPlan],
    spec: YcsbSpec,
    load_client: Optional[ZkClient] = None,
    load_plan: Optional[List[tuple]] = None,
) -> None:
    """Run load phase + all client plans to completion (blocking helper).

    ``load_plan`` — a list of ``(client, indices)`` pairs — loads each
    record range through a specific client (used by the WK-hot setups so
    creating a partition's records happens at the site that pre-holds
    their tokens). Otherwise ``load_client`` creates everything.
    """

    def orchestrate():
        if load_plan is not None:
            for loader, indices in load_plan:
                if not loader.connected:
                    yield loader.connect()
                yield env.process(load_records(loader, spec, indices))
        else:
            loader = load_client or plans[0].client
            if not loader.connected:
                yield loader.connect()
            yield env.process(load_records(loader, spec))
        yield env.timeout(500.0)  # let replication quiesce
        procs = []
        for plan in plans:
            if not plan.client.connected:
                yield plan.client.connect()
        for plan in plans:
            procs.append(
                env.process(
                    ycsb_client(
                        env,
                        plan.client,
                        spec,
                        plan.rng,
                        plan.recorder,
                        chooser=plan.chooser,
                        operation_count=plan.operation_count,
                    )
                )
            )
        for proc in procs:
            yield proc

    drive(env, env.process(orchestrate()), 1e9)


def drive(env: Environment, process, budget_ms: float) -> Any:
    """Run ``env`` until ``process`` finishes; return its value.

    Simulated time advances in 5 s steps until the process finishes or
    ``budget_ms`` has passed since the call; a process still waiting then
    raises ``RuntimeError`` instead of spinning forever on an event that
    never fires.
    """
    deadline = env.now + budget_ms
    while not process.triggered and env.now < deadline:
        env.run(until=env.now + 5000.0)
    if not process.triggered:
        raise RuntimeError(
            f"process did not finish within its budget of "
            f"{budget_ms:.0f} ms of simulated time"
        )
    if not process.ok:
        raise process.exception
    return process.value
