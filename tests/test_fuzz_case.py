"""Fuzz-case harness tests: determinism, verdict classes, hang detection."""

import json

from repro.fuzz.case import run_fuzz_case
from repro.fuzz.coverage import CoverageMap, case_coverage
from repro.fuzz.generate import generate_case


def test_case_payload_is_bit_identical_across_runs():
    spec = generate_case(5, 3)
    first = run_fuzz_case(spec)
    second = run_fuzz_case(spec)
    assert first == second
    assert first["trace_digest"] == second["trace_digest"]
    assert first["trace_events"] > 0


def test_injected_usurper_classifies_as_detected_not_violation():
    # Seed 5 / case 2 schedules a token-usurper that trips the sentinel's
    # single-token-ownership oracle: that is the adversarial actor being
    # *caught*, not a protocol bug, so it must not read as a finding.
    spec = generate_case(5, 2)
    assert any(e["kind"] == "token-usurper" for e in spec["schedule"])
    payload = run_fuzz_case(spec)
    assert payload["status"] == "detected"
    assert payload["invariant"] == "single-token-ownership"


def test_injected_stale_leader_detected_by_lease_oracle():
    spec = generate_case(5, 4)
    assert any(e["kind"] == "stale-leader" for e in spec["schedule"])
    payload = run_fuzz_case(spec)
    assert payload["status"] == "detected"
    assert payload["invariant"] == "lease-coherence"


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

    spec = generate_case(5, 3)
    spec["schedule"] = [{"kind": "clock-skew", "at": 100.0}]
    stale = tmp_path / "finding-stale.json"
    stale.write_text(json.dumps({"spec": spec, "expect": {"status": "ok"}}))
    assert main(["--replay", str(stale)]) == 1
    err = capsys.readouterr().err
    assert "artifact schema mismatch" in err
    assert "clock-skew" in err

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


def test_case_coverage_tokens_and_transitions():
    events = [
        (0, 1.0, "zab", "commit", "n1", None),
        (1, 2.0, "wan", "token-recall", "n1", None),
        (2, 3.0, "nemesis", "crash", "n2", None),
    ]
    coverage = case_coverage(events)
    assert coverage["kinds"] == ["nemesis:crash", "wan:token-recall", "zab:commit"]
    assert "wan:token-recall>nemesis:crash" in coverage["transitions"]

    cmap = CoverageMap()
    energy = cmap.observe(coverage)
    assert energy == len(coverage["kinds"]) + len(coverage["transitions"])
    assert cmap.observe(coverage) == 0  # nothing new the second time
