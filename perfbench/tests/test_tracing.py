"""Spans, nesting across threads, and self time."""

import threading

import pytest

from tracing import Span, Tracer, self_times


def span(span_id, start, end, parent=None):
    result = Span(span_id, "s%d" % span_id, start, parent, "r")
    result.end = end
    return result


def test_self_time_over_a_hand_built_tree():
    #  0 [0, 10]
    #  +- 1 [1, 4]
    #  |  +- 3 [2, 3]
    #  +- 2 [5, 9]
    #     +- 4 [5, 6]
    #     +- 5 [7, 9]
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 5.0, 9.0, parent=0),
        span(3, 2.0, 3.0, parent=1),
        span(4, 5.0, 6.0, parent=2),
        span(5, 7.0, 9.0, parent=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0,
                                 5: 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_counted_twice():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0),
             span(2, 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_spans_on_another_thread_nest_under_the_open_request():
    tracer = Tracer(clock=fake_clock())
    with tracer.request(7, template="Q1"):
        def work():
            with tracer.span("execute"):
                with tracer.span("rows.build"):
                    pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with tracer.span("protocol.encode"):
            pass
    request, execute, rows, encode = tracer.spans
    assert request.parent is None and request.request == 7
    assert execute.parent == request.span_id
    assert rows.parent == execute.span_id
    assert encode.parent == request.span_id
    assert {s.request for s in tracer.spans} == {7}


def test_spans_outside_requests_have_no_request():
    tracer = Tracer(clock=fake_clock())
    with tracer.span("setup.load"):
        pass
    assert tracer.spans[0].request is None


def test_request_spans_do_not_nest():
    tracer = Tracer(clock=fake_clock())
    with tracer.request(1):
        with pytest.raises(RuntimeError):
            with tracer.request(2):
                pass
