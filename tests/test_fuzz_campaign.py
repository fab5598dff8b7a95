"""Campaign-level tests: deterministic reports and the acceptance loop —
a re-introduced bug is found, shrunk small, and replays bit-identically."""

from repro.fuzz.campaign import run_campaign
from repro.fuzz.case import run_fuzz_case
from repro.fuzz.shrink import run_signature, shrink_case, signature_of


def test_campaign_report_is_deterministic():
    a = run_campaign(9, cases=4, shrink=False)
    b = run_campaign(9, cases=4, shrink=False)
    assert a == b
    assert a["executed"] == 4
    assert sum(a["statuses"].values()) == 4


def test_campaign_report_is_jobs_independent():
    solo = run_campaign(9, cases=4, shrink=False)
    parallel = run_campaign(9, cases=4, jobs=2, shrink=False)
    assert solo == parallel


def test_campaign_report_is_independent_of_the_out_dir(tmp_path):
    # A finding names its artifact relative to the report, so the report
    # is a pure function of (seed, cases, bug) wherever it is written.
    reports = [
        run_campaign(1, 12, bug="recall-race", shrink=False,
                     out_dir=str(tmp_path / name))
        for name in ("a", "b")
    ]
    assert reports[0] == reports[1]
    assert reports[0]["findings"], "seed 1 finds nothing to write"
    for finding in reports[0]["findings"]:
        assert (tmp_path / "a" / finding["artifact"]).is_file()


def test_campaign_finds_and_shrinks_reintroduced_recall_race():
    # Acceptance loop: with the recall-race knob re-introduced, a seeded
    # campaign must surface the single-token-ownership violation, shrink
    # it to a small schedule, and produce a bit-identical replay artifact.
    report = run_campaign(
        11,
        cases=12,
        bug="recall-race",
        shrink=True,
        shrink_budget=25,
    )
    rows = [
        row
        for row in report["findings"]
        if row["signature"] == ["violation", "single-token-ownership"]
    ]
    assert rows, report["findings"]
    finding = rows[0]
    assert finding["shrunk_entries"] <= 5
    artifact = finding["artifact_body"]
    expect = artifact["expect"]
    assert expect["status"] == "violation"
    assert expect["invariant"] == "single-token-ownership"
    replay = run_fuzz_case(artifact["spec"])
    assert replay["status"] == expect["status"]
    assert replay["invariant"] == expect["invariant"]
    assert replay["trace_digest"] == expect["trace_digest"]


def test_shrink_preserves_signature_and_monotonic_size():
    from repro.fuzz.generate import generate_case

    spec = generate_case(11, 10, bug="recall-race")
    signature, payload = run_signature(spec)
    assert signature == ("violation", "single-token-ownership")
    assert signature_of(payload) == signature
    shrunk, shrunk_payload, used = shrink_case(spec, signature, max_runs=25)
    assert len(shrunk["schedule"]) <= len(spec["schedule"])
    assert used <= 25
    assert signature_of(shrunk_payload) == signature
