"""Fuzz spec/generation unit tests: determinism and substream stability."""

import pytest

from repro.fuzz import generate
from repro.fuzz.generate import FAULT_KIND_BUDGET, generate_case
from repro.fuzz.spec import (
    BUG_KNOBS,
    SCHEDULE_KINDS,
    canonical_spec,
    spec_digest,
    validate_spec,
)
from repro.nemesis import ScheduleNemesis


def test_schedule_kinds_mirror_schedule_nemesis():
    # The spec layer's kind list and the nemesis executor must not drift.
    assert SCHEDULE_KINDS == ScheduleNemesis.KINDS


def test_fault_kind_budget_covers_only_known_kinds():
    assert set(k for k, _ in FAULT_KIND_BUDGET) == set(SCHEDULE_KINDS)


def test_generate_is_deterministic():
    a = generate_case(42, 3)
    b = generate_case(42, 3)
    assert a == b
    assert spec_digest(a) == spec_digest(b)


def test_generated_specs_validate():
    for index in range(12):
        validate_spec(generate_case(7, index))


def test_dropping_a_fault_kind_leaves_every_other_kind_bit_identical(
    monkeypatch,
):
    # Per-kind RNG substreams: a budget without some kinds must leave every
    # other kind's entries, and the rest of the spec, bit-identical.
    dropped = ("crash", "flaky-link")

    def kept(spec):
        return [e for e in spec["schedule"] if e["kind"] not in dropped]

    full = [generate_case(42, index) for index in range(6)]
    monkeypatch.setattr(
        generate,
        "FAULT_KIND_BUDGET",
        tuple((k, n) for k, n in FAULT_KIND_BUDGET if k not in dropped),
    )
    short = [generate_case(42, index) for index in range(6)]
    assert any(kept(spec) != spec["schedule"] for spec in full)
    for before, after in zip(full, short):
        assert after["schedule"] == kept(before)
        for field in ("topology", "deployment", "workload", "ambient", "seed"):
            assert after[field] == before[field]


def test_bug_knob_rides_along_without_changing_anything_else():
    plain = generate_case(13, 2)
    bugged = generate_case(13, 2, bug="recall-race")
    assert bugged["bug"] == "recall-race"
    stripped = canonical_spec(bugged)
    stripped["bug"] = None
    assert stripped == plain


def test_validate_rejects_broken_specs():
    good = generate_case(1, 0)

    bad = canonical_spec(good)
    bad["v"] = 99
    with pytest.raises(ValueError):
        validate_spec(bad)

    bad = canonical_spec(good)
    bad["deployment"]["read_mode"] = "psychic"
    with pytest.raises(ValueError):
        validate_spec(bad)

    bad = canonical_spec(good)
    bad["schedule"] = [{"at": 1000.0, "kind": "meteor", "dwell": 500.0}]
    with pytest.raises(ValueError):
        validate_spec(bad)

    bad = canonical_spec(good)
    bad["bug"] = "not-a-knob"
    assert "not-a-knob" not in BUG_KNOBS
    with pytest.raises(ValueError):
        validate_spec(bad)

    bad = canonical_spec(good)
    bad["workload"]["duration_ms"] = 0.0
    with pytest.raises(ValueError):
        validate_spec(bad)
