"""Tests for window managers and decayed counters."""

import pytest

from repro.common.exceptions import ParameterError
from repro.windowing import (
    DecayedCounter,
    DecayedFrequencies,
    SessionWindow,
    SlidingTimeWindow,
    TumblingWindow,
    windowed,
)


class TestTumblingWindow:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            TumblingWindow(0)

    def test_items_partitioned_by_span(self):
        events = [(0.5, "a"), (1.5, "b"), (2.5, "c"), (10.5, "d")]
        windows = list(windowed(events, TumblingWindow(1.0)))
        assert [w.items for w in windows] == [("a",), ("b",), ("c",), ("d",)]
        assert windows[0].start == 0.0 and windows[0].end == 1.0

    def test_multiple_items_per_window(self):
        events = [(0.1, 1), (0.2, 2), (0.9, 3), (1.1, 4)]
        windows = list(windowed(events, TumblingWindow(1.0)))
        assert windows[0].items == (1, 2, 3)
        assert windows[1].items == (4,)

    def test_flush_returns_partial(self):
        tw = TumblingWindow(10.0)
        tw.add(1.0, "x")
        final = tw.flush()
        assert len(final) == 1 and final[0].items == ("x",)
        assert tw.flush() == []


class TestSlidingTimeWindow:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SlidingTimeWindow(1.0, 2.0)  # step > size

    def test_overlap(self):
        events = [(float(t), t) for t in range(10)]
        windows = list(windowed(events, SlidingTimeWindow(size=4.0, step=2.0)))
        # Item 3 should appear in two windows (spans [0,4) and [2,6)).
        containing = [w for w in windows if 3 in w.items]
        assert len(containing) == 2

    def test_window_lengths(self):
        events = [(float(t), t) for t in range(20)]
        windows = list(windowed(events, SlidingTimeWindow(size=4.0, step=4.0)))
        assert all(len(w) == 4 for w in windows)

    def test_flush_emits_every_window_left_open(self):
        events = [(1, "a"), (7, "b"), (12, "c")]
        windows = list(windowed(events, SlidingTimeWindow(10, 5)))
        assert [(w.start, w.end, w.items) for w in windows] == [
            (-5, 5, ("a",)),
            (0, 10, ("a", "b")),
            (5, 15, ("b", "c")),
            (10, 20, ("c",)),
        ]

    def test_flush_resets_the_manager(self):
        sw = SlidingTimeWindow(4.0, 2.0)
        sw.add(1.0, "x")
        assert [w.items for w in sw.flush()] == [("x",), ("x",)]
        assert sw.flush() == []
        assert sw.add(11.0, "y") == []


class TestSessionWindow:
    def test_sessions_split_on_gap(self):
        events = [(0.0, "a"), (1.0, "b"), (100.0, "c"), (101.0, "d")]
        windows = list(windowed(events, SessionWindow(gap=10.0)))
        assert [w.items for w in windows] == [("a", "b"), ("c", "d")]

    def test_single_session_flushed(self):
        events = [(0.0, 1), (1.0, 2)]
        windows = list(windowed(events, SessionWindow(gap=5.0)))
        assert len(windows) == 1 and windows[0].items == (1, 2)

    def test_session_bounds(self):
        events = [(3.0, "x"), (4.0, "y")]
        (w,) = list(windowed(events, SessionWindow(gap=2.0)))
        assert w.start == 3.0 and w.end == 4.0


class TestDecayedCounter:
    def test_halves_after_half_life(self):
        c = DecayedCounter(half_life=10.0)
        c.add(8.0, timestamp=0.0)
        assert c.value_at(10.0) == pytest.approx(4.0)
        assert c.value_at(20.0) == pytest.approx(2.0)

    def test_monotone_time_enforced(self):
        c = DecayedCounter(half_life=1.0)
        c.add(1.0, timestamp=5.0)
        with pytest.raises(ParameterError):
            c.add(1.0, timestamp=4.0)
        with pytest.raises(ParameterError):
            c.value_at(3.0)

    def test_merge_aligns_clocks(self):
        a, b = DecayedCounter(10.0), DecayedCounter(10.0)
        a.add(8.0, timestamp=0.0)
        b.add(8.0, timestamp=10.0)
        a.merge(b)
        # At t=10: a decayed to 4, b fresh at 8 -> 12.
        assert a.value_at(10.0) == pytest.approx(12.0)


class TestDecayedFrequencies:
    def test_trending_overtakes_stale(self):
        df = DecayedFrequencies(half_life=10.0)
        for t in range(100):
            df.add("#old", float(t))
        for t in range(100, 140):
            df.add("#new", float(t))
        top = df.top(1)
        assert top[0][0] == "#new"

    def test_value_of_unknown_key(self):
        assert DecayedFrequencies(1.0).value("missing") == 0.0

    def test_eviction_bounds_memory(self):
        df = DecayedFrequencies(half_life=5.0, max_keys=100)
        for t in range(1_000):
            df.add(f"key{t}", float(t))
        assert len(df._values) <= 101

    def test_merge(self):
        a, b = DecayedFrequencies(10.0), DecayedFrequencies(10.0)
        a.add("x", 0.0)
        b.add("x", 0.0)
        a.merge(b)
        assert a.value("x", 0.0) == pytest.approx(2.0)
