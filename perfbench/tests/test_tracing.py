"""Span recording and self time, nested and across threads."""

import threading

import pytest

from perfbench.tracing import Span, Tracer, self_times, under_staging, union_length


def _span(name, start, end, parent=None, thread=1):
    span = Span(name, start, parent, thread, 0)
    span.end = end
    return span


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_of_nested_spans():
    root = _span("root", 0.0, 10.0)
    child = _span("child", 1.0, 7.0, root)
    grandchild = _span("grandchild", 2.0, 5.0, child)
    sibling = _span("sibling", 8.0, 9.0, root)
    selfs = self_times([root, child, grandchild, sibling])
    assert selfs[id(root)] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selfs[id(child)] == pytest.approx(6.0 - 3.0)
    assert selfs[id(grandchild)] == pytest.approx(3.0)


def test_self_time_counts_overlapping_cross_thread_children_once():
    # A request root whose children ran on two threads, overlapping in
    # time, and one child that outlived the root.
    root = _span("request.query", 0.0, 10.0)
    client = _span("submit", 0.0, 1.0, root, thread=1)
    worker = _span("range_query", 0.5, 6.0, root, thread=2)
    late = _span("late", 9.0, 12.0, root, thread=3)
    selfs = self_times([root, client, worker, late])
    # covered: [0, 6] and [9, 10] -> 7 of 10
    assert selfs[id(root)] == pytest.approx(3.0)


def test_self_time_skips_unclosed_spans():
    root = _span("root", 0.0, 4.0)
    open_child = Span("open", 1.0, root, 1, 0)
    assert self_times([root, open_child])[id(root)] == pytest.approx(4.0)
    assert id(open_child) not in self_times([root, open_child])


def test_top_level_spans_on_other_threads_join_the_request_in_flight():
    tracer = Tracer()
    rid = tracer.begin_request("query")
    outer = tracer.open("client.outer")
    inner = tracer.open("client.inner")
    tracer.close(inner)
    tracer.close(outer)

    def worker():
        span = tracer.open("worker.call")
        tracer.count(span, "things", 3)
        tracer.close(span)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end_request()
    after = tracer.open("no.request")
    tracer.close(after)

    root = tracer.requests[rid]
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["client.outer"].parent is root
    assert by_name["client.inner"].parent is by_name["client.outer"]
    assert by_name["worker.call"].parent is root
    assert by_name["worker.call"].thread != by_name["client.outer"].thread
    assert {by_name[n].request for n in ("client.outer", "client.inner",
                                         "worker.call")} == {rid}
    assert by_name["no.request"].parent is None
    assert by_name["no.request"].request is None
    assert tracer.counts()["query.things"] == 3


def test_spans_inside_a_staging_crawl_count_as_staging():
    tracer = Tracer()
    rid = tracer.begin_request("query")
    task = tracer.open("query.service.process_task")
    demand = tracer.open("storage.pagestore.read")
    tracer.count(demand, "physical_bytes", 100)
    tracer.close(demand)
    stage = tracer.open("query.prefetch.prefetch")
    read = tracer.open("storage.pagestore.read")
    tracer.count(read, "physical_bytes", 4096)
    tracer.close(read)
    tracer.close(stage)
    tracer.close(task)
    tracer.end_request()
    assert read.parent is stage and stage.parent is task and read.request == rid
    assert under_staging(stage) and under_staging(read)
    assert not under_staging(task) and not under_staging(demand)
    assert tracer.counts()["staging.physical_bytes"] == 4096
    assert tracer.counts()["query.physical_bytes"] == 100
