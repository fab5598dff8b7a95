"""``repro fuzz`` — run a campaign, or replay a minimized artifact.

Campaign mode::

    python -m repro fuzz --seed 7 --cases 50 --jobs 4 --out .fuzz-artifacts

prints the verdict counts and one block per finding (signature, shrunk
schedule size, artifact path). Exit status is 0 unless
``--fail-on-findings`` is set and the campaign found any.

Replay mode::

    python -m repro fuzz --replay .fuzz-artifacts/finding-....json

re-runs the artifact's spec deterministically and verifies the recorded
expectation — status, invariant, and the trace digest (bit-identical
reproduction). Exit 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

__all__ = ["main"]


def _replay(path: str, verbose: bool) -> int:
    from repro.fuzz.case import run_fuzz_case
    from repro.fuzz.spec import (
        SCHEDULE_KINDS,
        SPEC_VERSION,
        spec_digest,
        validate_spec,
    )

    # The artifact is a file from outside the program: whatever is wrong
    # with it is one line on stderr, never a traceback.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
    except OSError as exc:
        print(f"artifact unreadable: {path}: {exc.strerror}", file=sys.stderr)
        return 1
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        print(f"artifact unreadable: {path} is not JSON ({exc})", file=sys.stderr)
        return 1
    # Artifacts outlive fuzzer versions: a shrunk finding written before a
    # schedule-kind or spec-shape change must fail with a diagnosis, not a
    # KeyError deep inside the harness.
    spec = artifact.get("spec") if isinstance(artifact, dict) else None
    if not isinstance(spec, dict):
        print(
            f"artifact schema mismatch: {path} has no 'spec' object "
            "(not a fuzz finding artifact?)",
            file=sys.stderr,
        )
        return 1
    try:
        validate_spec(spec)
    except KeyError as exc:
        print(
            f"artifact schema mismatch: spec is missing field {exc} "
            f"(this fuzzer expects spec v{SPEC_VERSION})",
            file=sys.stderr,
        )
        return 1
    except (TypeError, ValueError) as exc:
        print(
            f"artifact schema mismatch: {exc} "
            f"(this fuzzer expects spec v{SPEC_VERSION}; known schedule "
            f"kinds: {', '.join(SCHEDULE_KINDS)})",
            file=sys.stderr,
        )
        return 1
    expect: Dict[str, Any] = artifact.get("expect") or {}
    print(f"replaying {path}")
    print(f"  spec digest: {spec_digest(spec)}")
    print(f"  schedule entries: {len(spec.get('schedule', []))}")
    payload = run_fuzz_case(spec)
    print(f"  status: {payload['status']}"
          + (f" ({payload['invariant']})" if payload.get("invariant") else ""))
    if verbose and payload.get("detail"):
        print(f"  detail: {payload['detail']}")
    print(f"  sim time: {payload['sim_time_ms']:.0f} ms, "
          f"trace events: {payload['trace_events']}")
    mismatches: List[str] = []
    for field in ("status", "invariant", "trace_digest"):
        if field in expect and expect[field] != payload.get(field):
            mismatches.append(
                f"{field}: expected {expect[field]!r}, "
                f"got {payload.get(field)!r}"
            )
    if mismatches:
        print("REPLAY MISMATCH:")
        for line in mismatches:
            print(f"  {line}")
        return 1
    if expect:
        print("  replay matches the recorded expectation (bit-identical "
              "trace digest)" if "trace_digest" in expect else
              "  replay matches the recorded expectation")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.fuzz.spec import BUG_KNOBS

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Fault-schedule fuzzing of the WanKeeper "
        "deployment (see docs/FUZZING.md).",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="campaign seed (default 42)")
    parser.add_argument("--cases", type=int, default=50,
                        help="total cases to run (default 50)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = in-process)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-case wall timeout in seconds, jobs>1 "
                        "only (default 300)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write campaign-report.json and finding "
                        "artifacts under DIR")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip schedule minimization of findings")
    parser.add_argument("--shrink-budget", type=int, default=80,
                        help="max re-runs per finding while shrinking "
                        "(default 80)")
    parser.add_argument("--bug", default=None,
                        choices=BUG_KNOBS,
                        help="re-introduce a known bug (validation that "
                        "the fuzzer finds it)")
    parser.add_argument("--fail-on-findings", action="store_true",
                        help="exit 1 if the campaign produced findings")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="replay one artifact instead of fuzzing")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args.replay, args.verbose)

    from repro.fuzz.campaign import run_campaign

    progress = print if args.verbose else None
    report = run_campaign(
        seed=args.seed,
        cases=args.cases,
        jobs=args.jobs,
        timeout_s=args.timeout,
        bug=args.bug,
        shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        out_dir=args.out,
        progress=progress,
    )

    print(f"campaign seed={report['seed']} cases={report['cases']}"
          + (f" bug={report['bug']}" if report["bug"] else ""))
    statuses = ", ".join(
        f"{status}={count}" for status, count in report["statuses"].items()
    )
    print(f"  statuses: {statuses or 'none'}")
    if not report["findings"]:
        print("  findings: none")
    for finding in report["findings"]:
        signature = ":".join(finding["signature"])
        print(f"  finding {signature}")
        print(f"    case #{finding['case_index']} "
              f"({finding['schedule_entries']} schedule entries) "
              f"-> shrunk to {finding['shrunk_entries']} "
              f"in {finding['shrink_runs']} runs")
        if finding.get("invariant"):
            print(f"    invariant: {finding['invariant']}")
        if finding.get("artifact"):
            print(f"    artifact: {os.path.join(args.out, finding['artifact'])}")
    if args.out:
        print(f"  report: {args.out}/campaign-report.json")
    if args.fail_on_findings and report["findings"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
