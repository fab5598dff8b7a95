"""``LatencyRecorder`` columns against the list-of-``OpSample`` recorder
they replaced (``tests/reference_recorder.py``).

Random streams drive the product and the oracle in lockstep: several
kinds (one of them domain-specific), failed ops, tied latencies, queries
between records, and merges of two recorders and chains of them. Every
query must answer identically, down to ``repr`` of every float, and so
must the samples themselves. The rest pins what the columns are for:
bytes per sample, no object per record, and the two ways the columns
refuse input rather than corrupt it.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.stats import MAX_KINDS, LatencyRecorder, OpSample
from tests.reference_recorder import LatencyRecorder as ReferenceRecorder

KINDS = ("read", "write", "lock/acquire")
ASKED = (None,) + KINDS + ("never-recorded",)

_times = st.floats(allow_nan=False, allow_infinity=False, width=64)
_latencies = st.one_of(
    st.sampled_from([0.0, 0.5, 1.5, 72.25]),  # ties
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)
_records = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        _times,
        _latencies,
        st.sampled_from([True, True, True, False]),
    ),
    max_size=60,
)


def _answer(query, *args):
    try:
        return repr(query(*args))
    except (ValueError, ZeroDivisionError) as exc:
        # ZeroDivisionError: a span of one subnormal latency underflows
        # to 0.0 s in throughput_ops_per_sec, on either recorder.
        return type(exc).__name__


def answers(recorder):
    """Every query's answer, as text a float cannot hide a ULP in."""
    out = [
        recorder.name,
        recorder.errors,
        len(recorder.samples),
        [(s.kind, repr(s.start), repr(s.latency), s.ok) for s in recorder.samples],
        _answer(recorder.span_ms),
        _answer(recorder.summary),
        _answer(recorder.summary, KINDS),
    ]
    for kind in ASKED:
        out += [
            _answer(recorder.latencies, kind),
            _answer(recorder.count, kind),
            _answer(recorder.mean_latency, kind),
            _answer(recorder.throughput_ops_per_sec, kind),
            _answer(recorder.cdf, kind),
            _answer(recorder.fraction_below, 1.5, kind),
            _answer(recorder.timeseries, 250.0, kind),
        ]
        out += [_answer(recorder.percentile_latency, p, kind) for p in (0, 50, 99, 100)]
    return out


@settings(max_examples=150, deadline=None)
@given(records=_records, split=st.integers(min_value=0, max_value=60))
def test_every_query_matches_the_list_recorder(records, split):
    product = LatencyRecorder("x")
    oracle = ReferenceRecorder("x")
    for part in (records[:split], records[split:]):
        for record in part:
            product.record(*record)
            oracle.record(*record)
        # Answered between records too: the sorted cache must drop.
        assert answers(product) == answers(oracle)


@settings(max_examples=150, deadline=None)
@given(streams=st.lists(_records, min_size=2, max_size=3))
def test_merges_match_the_list_recorder(streams):
    products = [LatencyRecorder(f"r{index}") for index in range(len(streams))]
    oracles = [ReferenceRecorder(f"r{index}") for index in range(len(streams))]
    for product, oracle, records in zip(products, oracles, streams):
        for record in records:
            product.record(*record)
            oracle.record(*record)
    merged_product, merged_oracle = products[0], oracles[0]
    for product, oracle in zip(products[1:], oracles[1:]):
        merged_product = merged_product.merged(product)
        merged_oracle = merged_oracle.merged(oracle)
        assert answers(merged_product) == answers(merged_oracle)
    # Merging leaves both inputs as they were.
    for product, oracle in zip(products, oracles):
        assert answers(product) == answers(oracle)


def test_merge_remaps_kinds_met_in_another_order():
    a, b = LatencyRecorder("a"), LatencyRecorder("b")
    a.record("read", 0.0, 1.0)
    b.record("entry", 1.0, 2.0, ok=False)
    b.record("write", 2.0, 3.0)
    b.record("read", 3.0, 4.0)
    assert list(a.merged(b).samples) == [
        OpSample("read", 0.0, 1.0),
        OpSample("entry", 1.0, 2.0, False),
        OpSample("write", 2.0, 3.0),
        OpSample("read", 3.0, 4.0),
    ]
    assert list(b.merged(a).samples)[-1] == OpSample("read", 0.0, 1.0)


def test_exact_samples_cost_columns_not_objects():
    n = 50_000
    recorder = LatencyRecorder("memory")
    recorder.record("read", 0.0, 1.0)
    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            # Fresh floats, as a driver's env.now and env.now - start are.
            recorder.record("write" if i % 3 else "read", i * 0.5, i % 97 + 0.25)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tracked_after = len(gc.get_objects())
    assert grown / n <= 24, f"{grown / n:.1f} traced bytes per sample"
    assert tracked_after - tracked_before < 10
    assert len(recorder.samples) == n + 1


def test_kind_codes_fail_loudly_past_the_column():
    recorder = LatencyRecorder("kinds")
    for index in range(MAX_KINDS):
        recorder.record(f"k{index}", float(index), 1.0, ok=index % 2 == 0)
    with pytest.raises(ValueError, match="kinds"):
        recorder.record("one-too-many", 0.0, 1.0)
    # Refused before any column grew: the columns stay aligned.
    assert len(recorder.samples) == MAX_KINDS
    assert recorder.samples[-1] == OpSample(f"k{MAX_KINDS - 1}", 127.0, 1.0, False)
    assert recorder.samples[-2] == OpSample(f"k{MAX_KINDS - 2}", 126.0, 1.0, True)
    other = LatencyRecorder("other")
    other.record("one-too-many", 0.0, 1.0)
    with pytest.raises(ValueError, match="kinds"):
        recorder.merged(other)


def test_exact_mode_refuses_times_a_float64_column_would_change():
    recorder = LatencyRecorder()
    with pytest.raises(TypeError):
        recorder.record("read", 0, 1.0)
    with pytest.raises(TypeError):
        recorder.record("read", 0.0, True)
    assert len(recorder.samples) == 0 and recorder.errors == 0


def test_samples_is_a_live_read_only_view():
    recorder = LatencyRecorder()
    recorder.record("read", 1.0, 2.0)
    recorder.record("write", 3.0, 4.0, ok=False)
    view = recorder.samples
    first, second = OpSample("read", 1.0, 2.0), OpSample("write", 3.0, 4.0, False)
    assert len(view) == 2
    assert view[0] == first and view[-1] == second
    assert list(reversed(view)) == [second, first]
    assert view == [first, second] and [first, second] == view
    assert view != [first] and view != (first, second)
    with pytest.raises(IndexError):
        view[2]
    with pytest.raises(AttributeError):
        recorder.samples = []
    with pytest.raises(AttributeError):
        view[0].start = 0.0
    assert not hasattr(view[0], "__dict__")
    recorder.record("read", 5.0, 6.0)
    assert len(view) == 3 and view[2] == OpSample("read", 5.0, 6.0)
