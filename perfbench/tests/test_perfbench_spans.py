import pytest

from spans import Span, Tracer, durations, inclusive_times, self_times


def tree():
    # main [0, 10]
    #   generate [1, 4]
    #     bruhat [2, 3]
    #   sweep [5, 9]
    #     table [5, 6]
    #     lower [7, 7.5]
    #   sweep [9, 10]   (a second lambda; no children)
    spans = [
        Span("main", 0.0, 10.0, None, "w"),
        Span("generate", 1.0, 4.0, 0, "w"),
        Span("bruhat", 2.0, 3.0, 1, "w"),
        Span("sweep", 5.0, 9.0, 0, "w"),
        Span("table", 5.0, 6.0, 3, "w"),
        Span("lower", 7.0, 7.5, 3, "w"),
        Span("sweep", 9.0, 10.0, 0, "w"),
    ]
    return spans


def test_self_time_subtracts_direct_children_only():
    own = self_times(tree())
    assert own["main"] == pytest.approx(10 - 3 - 4 - 1)
    assert own["generate"] == pytest.approx(3 - 1)
    assert own["bruhat"] == pytest.approx(1)
    assert own["sweep"] == pytest.approx((4 - 1 - 0.5) + 1)
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10)


def test_inclusive_time_sums_spans_of_a_name():
    incl = inclusive_times(tree())
    assert incl == pytest.approx(
        {"main": 10, "generate": 3, "bruhat": 1, "sweep": 5, "table": 1, "lower": 0.5}
    )
    assert durations(tree(), "sweep") == pytest.approx([4, 1])


def test_inclusive_time_does_not_count_a_nested_same_name_span_twice():
    spans = [
        Span("a", 0.0, 4.0, None, "w"),
        Span("b", 1.0, 3.0, 0, "w"),
        Span("a", 1.5, 2.5, 1, "w"),
    ]
    assert inclusive_times(spans) == pytest.approx({"a": 4, "b": 2})


def test_tracer_records_parents_and_closes_spans_on_error():
    t = Tracer("w")
    with t.span("outer"):
        with pytest.raises(RuntimeError):
            with t.span("inner"):
                raise RuntimeError
        with t.span("next"):
            pass
    assert [(s.name, s.parent) for s in t.spans] == [("outer", None), ("inner", 0), ("next", 0)]
    assert all(s.end >= s.start for s in t.spans)
