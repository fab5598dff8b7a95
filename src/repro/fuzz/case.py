"""Run one fuzz-case spec to a verdict.

Build the spec's WanKeeper world, attach the invariant sentinel and a
large trace buffer *unconditionally* (the sentinel is the fuzzer's oracle
— it is not optional here, unlike the env-gated default), and hand the
world and a :class:`repro.nemesis.ScheduleNemesis` playing the fault
schedule to the soak driver (:func:`repro.soak.run_soak`, which the
lossy-soak cell runs too); its record becomes the verdict.

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

import math
from typing import Any, Dict

from repro.fuzz.spec import (
    canonical_spec,
    site_names,
    spec_digest,
    spec_keys,
    validate_spec,
)
from repro.sim.rng import sha256

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
    from repro.soak import run_soak
    from repro.trace import TraceBuffer, install_trace
    from repro.wankeeper import build_wankeeper_deployment
    from repro.wankeeper.messages import TokenRecall, TokenReturn

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
        deployment.sentinel = InvariantSentinel(trace=trace)
        deployment.sentinel.adopt(deployment.servers)
    else:
        deployment.sentinel.trace = trace

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
    actors = [
        (site, seeded_rng(seed, f"actor:{site}:{actor_index}"))
        for site in names
        for actor_index in range(int(wl["actors"]))
    ]
    run = run_soak(
        deployment, nemesis, keys, actors,
        ops_per_actor=math.inf, duration_ms=float(wl["duration_ms"]),
        max_retries=8, request_timeout_ms=float(wl["request_timeout_ms"]),
        write_fraction=float(wl["write_fraction"]),
        pace_ms=tuple(float(p) for p in wl["pace_ms"]), settle_ms=500.0,
        quiesce_ms=float(spec["quiesce_ms"]), horizon_ms=float(spec["horizon_ms"]),
    )

    # The verdict: a sentinel violation, else two owners of a token at
    # quiesce, else the run's own status.
    violation = run.violation
    if run.token_conflicts:
        violation = InvariantViolation(
            "single-token-ownership",
            f"tokens owned by multiple site leaders at quiesce: {run.token_conflicts}",
        )
    if violation is not None:
        status = "violation"
    else:
        status = "ok" if run.finished else "hang"
    digest = sha256(trace.to_jsonl().encode("utf-8")).hexdigest()
    return {
        "status": status,
        "invariant": violation.invariant if violation else None,
        "detail": violation.detail[:500] if violation else None,
        "spec_digest": spec_digest(spec),
        "seed": seed,
        "sim_time_ms": round(env.now, 3),
        "writes": run.writes,
        "reads": run.reads,
        "client_failures": run.failures,
        "nemesis": {
            "applied": nemesis.applied,
            "skipped": nemesis.skipped,
            "events": dict(sorted(nemesis.summary().items())),
        },
        "trace_events": trace.total_emitted,
        "trace_digest": digest,
        "converged": None if violation else run.converged,
        "token_conflicts": (
            None if run.token_conflicts is None else len(run.token_conflicts)
        ),
    }
