"""Fuzz-case harness tests: determinism, verdict classes, hang detection."""

import json

import pytest

from repro.fuzz.case import run_fuzz_case
from repro.fuzz.generate import generate_case


def test_case_payload_is_bit_identical_across_runs():
    spec = generate_case(5, 3)
    first = run_fuzz_case(spec)
    second = run_fuzz_case(spec)
    assert first == second
    assert first["trace_digest"] == second["trace_digest"]
    assert first["trace_events"] > 0


@pytest.mark.parametrize("seed, index", [(2, 7), (29, 3), (32, 5)])
def test_former_false_findings_are_ok_and_converged(seed, index):
    """Each of these cases once carried a token-usurper entry: a site
    leader that claimed a token with no committed grant. That is a
    Byzantine fault, outside the crash-recovery model, and the case came
    out ``violation`` / ``reply-coherence`` without any protocol bug.
    Generated with environmental faults only, each case is clean."""
    spec = generate_case(seed, index)
    assert spec["schedule"], "the case still exercises the nemesis"
    payload = run_fuzz_case(spec)
    assert payload["status"] == "ok", payload["detail"]
    assert payload["converged"] is True


def test_sim_time_hang_detection():
    # A horizon shorter than the workload cannot complete: deterministic
    # in-sim hang, independent of any wall clock.
    spec = generate_case(5, 0)
    spec["horizon_ms"] = 3000.0
    payload = run_fuzz_case(spec)
    assert payload["status"] == "hang"
    assert payload["sim_time_ms"] <= 3000.0 + 1000.0


def test_replay_rejects_stale_artifact_with_schema_mismatch(tmp_path, capsys):
    """An artifact whose shrunk schedule uses a fault kind this fuzzer no
    longer knows must fail with a diagnosis, not a KeyError."""
    from repro.fuzz.cli import main

    # A kind this fuzzer never had, and the two kinds that left the nemesis.
    spec = generate_case(5, 3)
    for entry in (
        {"kind": "clock-skew", "at": 100.0},
        {"kind": "token-usurper", "at": 100.0, "site": 1, "key": 0},
        {"kind": "stale-leader", "at": 100.0, "site": 2},
    ):
        spec["schedule"] = [entry]
        stale = tmp_path / "finding-stale.json"
        stale.write_text(json.dumps({"spec": spec, "expect": {"status": "ok"}}))
        assert main(["--replay", str(stale)]) == 1
        out, err = capsys.readouterr()
        assert "artifact schema mismatch" in err
        assert f"unknown schedule kind '{entry['kind']}'" in err
        assert "replaying" not in out

    # An artifact that is not a finding at all (no spec object).
    bogus = tmp_path / "not-a-finding.json"
    bogus.write_text(json.dumps({"hello": "world"}))
    assert main(["--replay", str(bogus)]) == 1
    assert "artifact schema mismatch" in capsys.readouterr().err

    # Files that are not artifacts of any version: JSON of the wrong shape,
    # not JSON, not there. One line naming the path, no traceback.
    bogus.write_text("[]")
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    missing = tmp_path / "never-written.json"
    for path, problem in (
        (bogus, "artifact schema mismatch"),
        (garbage, "is not JSON"),
        (missing, "No such file"),
    ):
        assert main(["--replay", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and str(path) in err and problem in err
        assert "replaying" not in out
