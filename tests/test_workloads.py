"""Unit tests for workload generators and statistics."""

import random

import pytest

from repro.workloads import (
    HotspotChooser,
    LatencyRecorder,
    OverlapChooser,
    UniformChooser,
    YcsbSpec,
    ZipfianChooser,
    percentile,
)


def rng():
    return random.Random(1234)


def test_uniform_chooser_covers_range():
    chooser = UniformChooser(10)
    r = rng()
    seen = {chooser.choose(r) for _ in range(1000)}
    assert seen == set(range(10))


def test_zipfian_chooser_skews_to_low_ranks():
    chooser = ZipfianChooser(1000, theta=0.99)
    r = rng()
    draws = [chooser.choose(r) for _ in range(20000)]
    top10 = sum(1 for d in draws if d < 10)
    assert all(0 <= d < 1000 for d in draws)
    # Zipf(0.99) concentrates heavily: top-1% of records get >25% of accesses.
    assert top10 / len(draws) > 0.25


def test_zipfian_rejects_bad_theta():
    with pytest.raises(ValueError):
        ZipfianChooser(100, theta=1.5)


def test_hotspot_chooser_ratio():
    chooser = HotspotChooser(100, hot_data_fraction=0.2, hot_op_fraction=0.8)
    r = rng()
    draws = [chooser.choose(r) for _ in range(20000)]
    hot = sum(1 for d in draws if d < 20)
    assert 0.75 < hot / len(draws) < 0.85


def test_overlap_zero_is_disjoint():
    a = OverlapChooser(100, overlap=0.0, client_index=0)
    b = OverlapChooser(100, overlap=0.0, client_index=1)
    r = rng()
    a_keys = {a.choose(r) for _ in range(2000)}
    b_keys = {b.choose(r) for _ in range(2000)}
    assert not (a_keys & b_keys)


def test_overlap_full_is_shared():
    a = OverlapChooser(100, overlap=1.0, client_index=0)
    b = OverlapChooser(100, overlap=1.0, client_index=1)
    r = rng()
    a_keys = {a.choose(r) for _ in range(2000)}
    b_keys = {b.choose(r) for _ in range(2000)}
    assert a_keys == b_keys == set(range(100))


def test_overlap_half_mixes():
    a = OverlapChooser(1000, overlap=0.5, client_index=0)
    r = rng()
    draws = [a.choose(r) for _ in range(10000)]
    shared = sum(1 for d in draws if d < 500)
    assert 0.45 < shared / len(draws) < 0.55


def test_overlap_validation():
    with pytest.raises(ValueError):
        OverlapChooser(100, overlap=1.5, client_index=0)
    with pytest.raises(ValueError):
        OverlapChooser(100, overlap=0.5, client_index=2, client_total=2)


def test_percentile_basics():
    values = sorted([1.0, 2.0, 3.0, 4.0])
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_recorder_aggregates():
    recorder = LatencyRecorder("test")
    for i in range(10):
        recorder.record("read", start=i * 10.0, latency=1.0)
    recorder.record("write", start=100.0, latency=50.0)
    assert recorder.count("read") == 10
    assert recorder.count() == 11
    assert recorder.mean_latency("read") == pytest.approx(1.0)
    assert recorder.percentile_latency(50, "write") == pytest.approx(50.0)
    # Span: first start 0.0, last completion 150.0.
    assert recorder.span_ms() == pytest.approx(150.0)
    assert recorder.throughput_ops_per_sec() == pytest.approx(11 / 0.15)


def test_recorder_summary_is_json_plain():
    import json

    recorder = LatencyRecorder("test")
    for i in range(4):
        recorder.record("read", start=i * 10.0, latency=2.0)
    recorder.record("write", start=50.0, latency=20.0)
    summary = recorder.summary()
    assert summary["count"] == 5
    assert summary["read_count"] == 4
    assert summary["read_mean_ms"] == pytest.approx(2.0)
    assert summary["write_p99_ms"] == pytest.approx(20.0)
    # No writes recorded -> None, not an exception.
    empty = LatencyRecorder().summary()
    assert empty["write_mean_ms"] is None
    # The whole dict must round-trip JSON bit-exactly (cache contract).
    assert json.loads(json.dumps(summary)) == summary


def test_recorder_cdf_and_fraction_below():
    recorder = LatencyRecorder()
    for latency in [1.0, 2.0, 3.0, 4.0]:
        recorder.record("write", 0.0, latency)
    cdf = recorder.cdf("write")
    assert cdf[0] == (1.0, 0.25)
    assert cdf[-1] == (4.0, 1.0)
    assert recorder.fraction_below(2.5, "write") == pytest.approx(0.5)


def test_recorder_errors_excluded():
    recorder = LatencyRecorder()
    recorder.record("write", 0.0, 1.0, ok=True)
    recorder.record("write", 0.0, 99.0, ok=False)
    assert recorder.count("write") == 1
    assert recorder.errors == 1
    assert recorder.mean_latency("write") == pytest.approx(1.0)


def test_recorder_timeseries():
    recorder = LatencyRecorder()
    for t in [0.0, 100.0, 150.0, 1100.0]:
        recorder.record("write", t, 10.0)
    series = recorder.timeseries(bucket_ms=1000.0)
    assert series[0] == (0.0, 3.0)
    assert series[1] == (1000.0, 1.0)


def test_recorder_merge():
    a, b = LatencyRecorder("a"), LatencyRecorder("b")
    a.record("read", 0.0, 1.0)
    b.record("write", 5.0, 2.0)
    merged = a.merged(b)
    assert merged.count() == 2


def test_spec_validation_and_keys():
    spec = YcsbSpec(record_count=10, write_fraction=0.5)
    assert spec.key(3) == "/usertable/user000003"
    with pytest.raises(ValueError):
        YcsbSpec(write_fraction=1.5)


def test_spec_value_deterministic_with_seed():
    spec = YcsbSpec()
    assert spec.value(random.Random(7)) == spec.value(random.Random(7))
