"""The fuzz campaign: generate, execute, shrink, report.

A campaign turns one seed into ``cases`` specs, ``generate_case(seed, i)``
for each ``i < cases``, and runs them all in one call of the standard
:func:`repro.runner.executor.execute` (so ``--jobs`` buys parallelism and
every case gets the per-cell wall timeout and crash capture). Verdicts
are read back in case order, which keeps the campaign report a pure
function of ``(seed, cases, bug)`` at any jobs count.

Findings — distinct failure signatures — are shrunk in-process
(:mod:`repro.fuzz.shrink`) and written as replayable artifacts next to
the campaign report when ``--out`` is given; a finding names its
artifact by file name, relative to the report.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fuzz.generate import generate_case
from repro.fuzz.shrink import run_signature, shrink_case, signature_of
from repro.fuzz.spec import spec_digest, spec_json
from repro.runner.executor import execute
from repro.runner.scenario import Scenario

__all__ = ["make_artifact", "run_campaign", "write_artifact"]

REPORT_VERSION = 1


def _scenario_for(spec: Dict[str, Any], index: int) -> Scenario:
    return Scenario.make(
        "fuzz_case",
        {"spec_json": spec_json(spec)},
        suite="fuzz",
        label=f"case{index}",
    )


def make_artifact(
    spec: Dict[str, Any], payload: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """A replayable artifact: the (shrunk) spec plus what to expect.

    ``repro fuzz --replay`` re-runs the spec and asserts the expectation
    — including the trace digest, i.e. bit-identical reproduction.
    """
    expect: Dict[str, Any] = {}
    if payload is not None:
        expect = {
            "status": payload.get("status"),
            "invariant": payload.get("invariant"),
            "trace_digest": payload.get("trace_digest"),
            "detail": payload.get("detail"),
        }
    return {"v": REPORT_VERSION, "spec": spec, "expect": expect}


def _slug(signature: Tuple[str, ...]) -> str:
    return "-".join(
        part.replace("/", "_").replace(" ", "_") for part in signature
    )


def write_artifact(
    out_dir: str,
    signature: Tuple[str, ...],
    artifact: Dict[str, Any],
) -> str:
    """Write one finding's artifact; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    digest = spec_digest(artifact["spec"])[:10]
    path = os.path.join(out_dir, f"finding-{_slug(signature)}-{digest}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_campaign(
    seed: int,
    cases: int,
    jobs: int = 1,
    timeout_s: float = 300.0,
    bug: Optional[str] = None,
    shrink: bool = True,
    shrink_budget: int = 80,
    out_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run one campaign; returns the deterministic JSON-plain report."""
    say = progress or (lambda _msg: None)
    specs = [generate_case(seed, index, bug=bug) for index in range(cases)]
    scenarios = [
        _scenario_for(spec, index) for index, spec in enumerate(specs)
    ]
    report = execute(
        scenarios,
        jobs=jobs,
        cache=None,
        timeout_s=timeout_s,
        progress=progress,
    )
    failure_by_digest = {
        failure.scenario.digest(): failure for failure in report.failures
    }
    findings: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    statuses: Dict[str, int] = {}
    for index, (spec, scenario) in enumerate(zip(specs, scenarios)):
        payload = report.results.get(scenario.digest())
        if payload is not None:
            status = payload["status"]
            signature = signature_of(payload)
        else:
            failure = failure_by_digest.get(scenario.digest())
            status = failure.kind if failure is not None else "crash"
            signature = (status,)
        statuses[status] = statuses.get(status, 0) + 1
        if signature is not None and signature not in findings:
            say(f"finding: {signature} (case {index})")
            findings[signature] = {
                "signature": list(signature),
                "case_index": index,
                "case_digest": spec_digest(spec),
                "schedule_entries": len(spec["schedule"]),
                "spec": spec,
            }

    # ---- shrink + artifacts ----
    finding_rows: List[Dict[str, Any]] = []
    for signature_key in sorted(findings):
        finding = findings[signature_key]
        spec = finding.pop("spec")
        shrunk_spec, shrunk_payload = spec, None
        shrink_runs = 0
        if shrink:
            # Executor-side signatures (timeout/crash) are wall-clock
            # artifacts; shrink against the deterministic in-process
            # signature of the same spec instead.
            target, payload0 = run_signature(spec)
            shrink_runs += 1
            if target is not None:
                shrunk_spec, shrunk_payload, used = shrink_case(
                    spec,
                    target,
                    max_runs=shrink_budget,
                    progress=progress,
                )
                shrink_runs += used
                finding["signature"] = list(target)
            else:
                shrunk_payload = payload0
        finding["shrunk_entries"] = len(shrunk_spec["schedule"])
        finding["shrunk_digest"] = spec_digest(shrunk_spec)
        finding["shrink_runs"] = shrink_runs
        if shrunk_payload is not None:
            finding["invariant"] = shrunk_payload.get("invariant")
            finding["trace_digest"] = shrunk_payload.get("trace_digest")
        artifact = make_artifact(shrunk_spec, shrunk_payload)
        finding["artifact"] = None
        if out_dir is not None:
            # The file name alone: the report sits beside its artifacts,
            # and its bytes must not depend on where they were written.
            finding["artifact"] = os.path.basename(
                write_artifact(out_dir, tuple(finding["signature"]), artifact)
            )
        else:
            finding["artifact_body"] = artifact
        finding_rows.append(finding)

    report_dict: Dict[str, Any] = {
        "v": REPORT_VERSION,
        "seed": seed,
        "cases": cases,
        "bug": bug,
        "executed": report.executed,
        "statuses": dict(sorted(statuses.items())),
        "findings": finding_rows,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "campaign-report.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report_dict, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report_dict
