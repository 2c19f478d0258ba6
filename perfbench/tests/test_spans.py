"""Span recording and self-time subtraction."""

import time
from array import array

from rivbench.spans import Patcher, SpanRecorder


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    a, b, c, d = (rec.name_id(n) for n in "abcd")
    # root a [0, 10] > b [1, 6] > c [2, 4]; a > d [7, 9]; separate root b [20, 21]
    rec.name = array("l", [a, b, c, d, b])
    rec.parent = array("l", [-1, 0, 1, 0, -1])
    rec.start = array("d", [0.0, 1.0, 2.0, 7.0, 20.0])
    rec.end = array("d", [10.0, 6.0, 4.0, 9.0, 21.0])
    assert list(rec.self_times()) == [10 - 5 - 2, 5 - 2, 2, 2, 1]
    assert rec.by_name() == {"a": (1, 3.0), "b": (2, 4.0), "c": (1, 2.0), "d": (1, 2.0)}
    assert sum(rec.self_times()) == rec.root_time() == 11.0
    # A window that starts at the second root sees only that span.
    assert rec.by_name(4, 5) == {"b": (1, 1.0)}
    assert rec.root_time(4, 5) == 1.0


class Toy:
    def outer(self, n):
        time.sleep(0.002)
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        time.sleep(0.001)
        if i < 0:
            raise ValueError(i)
        return i


def test_patcher_nests_spans_and_restores():
    original = Toy.__dict__["outer"]
    rec = SpanRecorder()
    with Patcher(rec) as patcher:
        patcher.span(Toy, "outer", "toy|outer")
        patcher.span(Toy, "inner", "toy|inner",
                     tag=lambda args, result: None if result is None else ("s1", result))
        assert Toy().outer(3) == [0, 1, 2]
        try:
            Toy().inner(-1)
        except ValueError:
            pass
    assert Toy.__dict__["outer"] is original
    assert len(rec) == 5 and not rec.stack
    assert list(rec.parent) == [-1, 0, 0, 0, -1]
    assert list(rec.seq[:4]) == [-1, 0, 1, 2]
    spans = rec.by_name()
    assert spans["toy|inner"][0] == 4
    own = rec.self_times()
    assert abs(sum(own) - rec.root_time()) < 1e-9
    assert spans["toy|outer"][1] < rec.end[0] - rec.start[0]


def test_count_hook_counts_registered_callback_invocations():
    class Source:
        def __init__(self):
            self.listeners = []

        def add_listener(self, fn):
            self.listeners.append(fn)

    rec = SpanRecorder()
    with Patcher(rec) as patcher:
        patcher.count_callbacks(Source, "add_listener", "fired", arg=1)
        source = Source()
        source.add_listener(lambda x: x)
        for listener in source.listeners * 3:
            listener(1)
    assert rec.counters == {"fired": 3}
