"""Run one fuzz-case spec to a verdict.

The harness is a parameterized sibling of the lossy-soak cell
(:func:`repro.runner.cells.cell_soak`): build the spec's topology and
WanKeeper deployment, attach the invariant sentinel and a large trace
buffer *unconditionally* (the sentinel is the fuzzer's oracle — it is not
optional here, unlike the env-gated default), play the declarative fault
schedule through :class:`repro.nemesis.ScheduleNemesis` under a retrying
multi-site workload, then quiesce and run the end-of-run checks.

The payload is JSON-plain and a pure function of the spec:

* ``status`` — ``ok`` | ``violation`` (an :class:`InvariantViolation`
  fired, during the run or at final check) | ``hang`` (the workload did
  not complete within the sim-time budget: lost liveness);
* ``trace_digest`` — sha256 of the trace JSONL at the moment the verdict
  was reached; two runs of one spec must match bit-for-bit, which is what
  ``repro fuzz --replay`` asserts.

Wall-clock hangs/crashes of the *process* are the executor's department
(per-cell ``timeout_s``); the in-sim budget here is what makes hang
detection deterministic.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.fuzz.spec import (
    canonical_spec,
    site_names,
    spec_digest,
    spec_keys,
    validate_spec,
)

__all__ = ["run_fuzz_case"]

#: Trace ring large enough that small fuzz cases never wrap (the digest
#: stays a function of the *whole* history).
TRACE_CAPACITY = 1 << 16


def run_fuzz_case(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one spec; returns the JSON-plain verdict payload."""
    from repro.invariants import InvariantSentinel, InvariantViolation
    from repro.nemesis import NemesisConfig, ScheduleNemesis
    from repro.net import LinkProfile, Network, Topology
    from repro.sim import Environment, seeded_rng
    from repro.trace import TraceBuffer, install_trace
    from repro.wankeeper import build_wankeeper_deployment
    from repro.wankeeper.messages import TokenRecall, TokenReturn
    from repro.zk import ConnectionLossError, SessionExpiredError
    from repro.zk.errors import ZkError

    spec = canonical_spec(spec)
    validate_spec(spec)
    seed = int(spec["seed"])
    names = site_names(spec)
    keys = spec_keys(spec)
    topo_spec = spec["topology"]
    dep_spec = spec["deployment"]
    wl = spec["workload"]

    env = Environment()
    one_way = {
        frozenset(pair.split("|")): float(delay)
        for pair, delay in topo_spec["delays"].items()
    }
    topo = Topology(
        names,
        one_way_ms=one_way,
        local_one_way_ms=float(topo_spec["local_ms"]),
        jitter_fraction=float(topo_spec["jitter"]),
    )
    net = Network(env, topo, rng=seeded_rng(seed, "net"))
    deployment = build_wankeeper_deployment(
        env,
        net,
        topo,
        l2_site=names[int(dep_spec["l2"])],
        voters_per_site=int(dep_spec["voters"]),
        initial_tokens={
            keys[int(key_index)]: names[int(site_index)]
            for key_index, site_index in dep_spec.get("pin", [])
        },
        read_mode=str(dep_spec["read_mode"]),
        read_lease_ms=float(dep_spec["lease_ms"]),
    )
    if spec.get("bug") == "recall-race":
        # A wire fault: every recall and return loses the grant counts it
        # carries, so a site cannot tell a recall that overtook its grant
        # on the relay stream. It answers "not owned", the hub re-grants
        # the key elsewhere, and the delayed grant lands later: two owners.
        # Nor can the hub tell a stale return from the one it awaits.
        def erase_grant_counts(envelope) -> None:
            body = envelope.body
            if type(body) is TokenRecall:
                envelope.body = TokenRecall(body.keys)
            elif type(body) is TokenReturn:
                envelope.body = TokenReturn(body.site, body.sender, body.keys, body.seq)

        net.tap(erase_grant_counts)

    # The oracle is not optional for fuzzing: attach the sentinel and a
    # big trace ring regardless of REPRO_SENTINEL, so in-process, worker,
    # and CLI runs of one spec see the identical instrumented world.
    trace = TraceBuffer(capacity=TRACE_CAPACITY)
    install_trace(deployment, trace)
    if deployment.sentinel is None:
        sentinel = InvariantSentinel(trace=trace)
        sentinel.adopt(deployment.servers)
        deployment.sentinel = sentinel
    else:
        deployment.sentinel.trace = trace
    sentinel = deployment.sentinel

    deployment.start()
    deployment.stabilize()

    ambient_spec = spec["ambient"]
    if float(ambient_spec["loss"]) or float(ambient_spec["duplicate"]):
        ambient = LinkProfile(
            loss=float(ambient_spec["loss"]),
            duplicate=float(ambient_spec["duplicate"]),
        )
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                net.degrade(names[i], names[j], ambient)

    nemesis = ScheduleNemesis(
        env,
        net,
        deployment,
        spec["schedule"],
        config=NemesisConfig(
            interval_ms=500.0,
            max_active_partitions=2,
            max_active_degradations=3,
        ),
    )

    counter = {"next": 0}
    ops_done = {"write": 0, "read": 0}
    failures = {"count": 0}
    pace_lo, pace_hi = (float(p) for p in wl["pace_ms"])

    def site_client(site):
        client = deployment.client(
            site,
            session_timeout_ms=30000.0,
            request_timeout_ms=float(wl["request_timeout_ms"]),
        )
        leader = deployment.site_leader(site)
        if leader is not None and leader.is_alive:
            client.server_addr = leader.client_addr
        return client

    def actor(site, actor_index, end):
        rng = seeded_rng(seed, f"actor:{site}:{actor_index}")
        client = site_client(site)
        try:
            yield client.connect_retrying(max_retries=8)
        except ZkError:
            failures["count"] += 1
            return
        while env.now < end:
            key = rng.choice(keys)
            is_write = rng.random() < float(wl["write_fraction"])
            try:
                if is_write:
                    counter["next"] += 1
                    yield client.set_data_retrying(
                        key, str(counter["next"]).encode(), max_retries=8
                    )
                    ops_done["write"] += 1
                else:
                    yield client.get_data_retrying(key, max_retries=8)
                    ops_done["read"] += 1
            except (ConnectionLossError, SessionExpiredError) as exc:
                failures["count"] += 1
                if isinstance(exc, SessionExpiredError):
                    client = site_client(site)
                    try:
                        yield client.connect_retrying(max_retries=8)
                    except ZkError:
                        failures["count"] += 1
                        return
            except ZkError:
                failures["count"] += 1
            yield env.timeout(rng.uniform(pace_lo, pace_hi))

    def app():
        setup = deployment.client(names[0])
        yield setup.connect()
        yield setup.create("/fuzz", b"")
        for key in keys:
            yield setup.create(key, b"")
        yield env.timeout(500.0)
        nemesis.start()
        end = env.now + float(wl["duration_ms"])
        procs = [
            env.process(actor(site, actor_index, end))
            for site in names
            for actor_index in range(int(wl["actors"]))
        ]
        for proc in procs:
            yield proc
        nemesis.stop_and_repair()
        net.restore_all()
        net.heal_all()
        yield env.timeout(float(spec["quiesce_ms"]))
        return True

    def verdict(status: str, violation) -> Dict[str, Any]:
        digest = hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest()
        return {
            "status": status,
            "invariant": violation.invariant if violation else None,
            "detail": violation.detail[:500] if violation else None,
            "spec_digest": spec_digest(spec),
            "seed": seed,
            "sim_time_ms": round(env.now, 3),
            "writes": ops_done["write"],
            "reads": ops_done["read"],
            "client_failures": failures["count"],
            "nemesis": {
                "applied": nemesis.applied,
                "skipped": nemesis.skipped,
                "events": dict(sorted(nemesis.summary().items())),
            },
            "trace_events": trace.total_emitted,
            "trace_digest": digest,
            "converged": None,
            "token_conflicts": None,
        }

    process = env.process(app())
    deadline = env.now + float(spec["horizon_ms"])
    try:
        while (
            not process.triggered
            and env.now < deadline
            and env.peek() != float("inf")
        ):
            env.run(until=min(deadline, env.now + 1000.0))
    except InvariantViolation as exc:
        # The sim is poisoned mid-callback: capture and stop immediately.
        return verdict("violation", exc)
    if not process.triggered:
        return verdict("hang", None)
    if not process.ok:
        exc = process.exception
        if isinstance(exc, InvariantViolation):
            return verdict("violation", exc)
        raise exc  # a genuine harness crash -> CellFailure upstream

    # ---- end-of-run checks (only sound at quiesce, after full repair) ----
    try:
        sentinel.final_check()
    except InvariantViolation as exc:
        return verdict("violation", exc)
    fingerprints = set(deployment.content_fingerprints().values())
    owners: Dict[str, list] = {}
    for site in names:
        leader = deployment.site_leader(site)
        if leader is None:
            continue
        for key in sorted(leader.site_tokens.owned):
            owners.setdefault(key, []).append(site)
    conflicted = sorted(k for k, held in owners.items() if len(held) > 1)
    if conflicted:
        violation = InvariantViolation(
            "single-token-ownership",
            f"tokens owned by multiple site leaders at quiesce: {conflicted}",
        )
        payload = verdict("violation", violation)
        payload["token_conflicts"] = len(conflicted)
        return payload
    payload = verdict("ok", None)
    payload["converged"] = len(fingerprints) == 1
    payload["token_conflicts"] = 0
    return payload
