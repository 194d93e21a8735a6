"""Unit tests for trace records and counters."""

import gc
import pickle
import tracemalloc

import pytest

from repro.sim.trace import Counter, DeliveryRecord, SendRecord, TraceCollector


def test_delivery_record_latency():
    record = DeliveryRecord("f", 0, sent_at=1.0, delivered_at=1.25, destination="d")
    assert record.delivered
    assert record.latency == 0.25


def test_undelivered_record_has_no_latency():
    record = DeliveryRecord("f", 0, sent_at=1.0, delivered_at=None, destination="d")
    assert not record.delivered
    assert record.latency is None
    assert not record.within(10.0)


def test_within_deadline_boundary():
    record = DeliveryRecord("f", 0, sent_at=0.0, delivered_at=0.2, destination="d")
    assert record.within(0.2)
    assert not record.within(0.19)


def test_counter_accumulates():
    counter = Counter()
    counter.add("x")
    counter.add("x", 2.5)
    assert counter.get("x") == 3.5
    assert counter.get("missing") == 0.0
    assert counter.as_dict() == {"x": 3.5}


def test_trace_filters_by_flow_and_destination():
    trace = TraceCollector()
    trace.record_delivery("f1", 0, 0.0, 0.1, "a")
    trace.record_delivery("f1", 1, 0.0, 0.1, "b")
    trace.record_delivery("f2", 0, 0.0, 0.1, "a")
    assert len(trace.for_flow("f1")) == 2
    assert len(trace.for_destination("a")) == 2


def test_trace_send_records():
    trace = TraceCollector()
    trace.record_send("f1", 0, 1.0, 100, "dst")
    trace.record_send("f2", 0, 1.0, 100, "dst")
    sends = trace.sends_for_flow("f1")
    assert len(sends) == 1
    assert sends[0].seq == 0


# ------------------------------------------------------------ the store


def test_fields_round_trip_through_the_columns():
    trace = TraceCollector()
    trace.record_delivery("flüss→7", 2**40, 0.1 + 0.2, None, "東京:9", 1500)
    trace.record_delivery("flüss→7", 3, 0.5, 0.1 + 0.2, "東京:9")
    trace.record_send("flüss→7", 2**40, 0.1 + 0.2, 1500, "東京:9")
    lost, late = trace.records
    assert (lost.flow, lost.seq, lost.destination, lost.size) == (
        "flüss→7", 2**40, "東京:9", 1500)
    assert repr(lost.sent_at) == repr(0.1 + 0.2)
    assert lost.delivered_at is None and not lost.delivered
    assert lost.latency is None
    assert repr(late.delivered_at) == repr(0.1 + 0.2) and late.size == 0
    assert trace.sends[0] == SendRecord("flüss→7", 2**40, 0.1 + 0.2, 1500,
                                        "東京:9")
    assert repr(lost) == (
        "DeliveryRecord(flow='flüss→7', seq=1099511627776, "
        "sent_at=0.30000000000000004, delivered_at=None, "
        "destination='東京:9', size=1500)")


def test_records_compare_hash_and_pickle_by_value():
    trace = TraceCollector()
    trace.record_delivery("f", 1, 0.5, 0.75, "d", 10)
    standalone = DeliveryRecord(flow="f", seq=1, sent_at=0.5,
                                delivered_at=0.75, destination="d", size=10)
    row = trace.records[0]
    assert row == standalone and hash(row) == hash(standalone)
    assert row != DeliveryRecord("f", 1, 0.5, 0.75, "d")
    assert row != SendRecord("f", 1, 0.5, 10, "d")
    assert pickle.loads(pickle.dumps(row)) == standalone
    assert len({row, standalone, trace.records[0]}) == 1
    with pytest.raises(AttributeError):
        row.seq = 2
    with pytest.raises(AttributeError):
        standalone.flow = "g"
    assert row.seq == 1 and standalone.flow == "f"


def test_views_are_live_sequences_and_slices_are_snapshots():
    trace = TraceCollector()
    records = trace.records
    assert not records and len(records) == 0
    for seq in range(5):
        trace.record_delivery("f" if seq % 2 else "g", seq, seq * 0.1,
                              seq * 0.1 + 0.01, f"d{seq % 3}")
    assert records is trace.records and len(records) == 5 and records
    head, tail = records[:3], records[-2:]
    trace.record_delivery("f", 5, 0.5, 0.51, "d2")
    assert len(records) == 6 and len(head) == 3 and len(tail) == 2
    assert [r.seq for r in tail] == [3, 4]
    assert [r.seq for r in records[4:]] == [4, 5]
    assert records[-1].seq == 5 and records[-6].seq == 0
    assert head[-1].seq == 2 and [r.seq for r in head[1:]] == [1, 2]
    assert [r.seq for r in records[::2]] == [0, 2, 4]
    assert len(records[4:2]) == 0
    for bad in (6, -7):
        with pytest.raises(IndexError):
            records[bad]
    with pytest.raises(IndexError):
        head[3]
    with pytest.raises(TypeError):
        records[0] = None
    expected = [DeliveryRecord("f" if seq % 2 else "g", seq, seq * 0.1,
                               seq * 0.1 + 0.01, f"d{seq % 3}")
                for seq in range(5)]
    expected.append(DeliveryRecord("f", 5, 0.5, 0.51, "d2"))
    assert records == expected and expected == records
    assert records[:3] == expected[:3] and records != expected[:5]
    assert [r.seq for r in trace.for_flow("f")] == [1, 3, 5]
    assert [r.seq for r in trace.for_destination("d2")] == [2, 5]
    trace.record_delivery("f", 6, 0.6, 0.61, "d0")
    assert [r.seq for r in trace.for_flow("f")] == [1, 3, 5, 6]
    assert trace.for_flow("unknown") == []


def _tracked_and_traced(fn):
    """GC-tracked objects and traced bytes that ``fn`` leaves behind."""
    gc.collect()
    tracemalloc.start()
    try:
        objects, traced = len(gc.get_objects()), tracemalloc.get_traced_memory()[0]
        kept = fn()
        gc.collect()
        return (len(gc.get_objects()) - objects,
                tracemalloc.get_traced_memory()[0] - traced, kept)
    finally:
        tracemalloc.stop()


def test_records_cost_columns_not_objects():
    n = 10_000
    trace = TraceCollector()
    flows = [f"flow-{k}" for k in range(20)]
    sinks = [f"site-{k}:9" for k in range(7)]
    trace.record_delivery(flows[0], 0, 0.0, 0.0, sinks[0])  # warm the tables

    def record():
        for i in range(n):
            trace.record_delivery(flows[i % 20], i, i * 1e-3, i * 1e-3 + 0.02,
                                  sinks[i % 7], 1200)

    objects, traced, _ = _tracked_and_traced(record)
    assert objects <= 50
    assert traced <= 48 * n

    # A window's records held at once (perf groups them per sink) are
    # rows, not value copies: a two-slot object (48 B), its row number
    # (an int, 32 B past 256) and the list's slot. A value record with
    # its two floats and two ints is over 190 B.
    objects, traced, held = _tracked_and_traced(lambda: list(trace.records[1:]))
    assert len(held) == n and held[-1].seq == n - 1
    assert traced <= 96 * n
