"""Tests for timestamp sources (repro.util.timefmt)."""

from repro.util.timefmt import TimestampSource, epoch_ms


class TestWallClockHelpers:
    def test_epoch_ms_is_large(self):
        assert epoch_ms() > 1_600_000_000_000  # after Sep 2020


class TestTimestampSource:
    def test_strictly_increasing_under_constant_clock(self):
        src = TimestampSource(now_ms=lambda: 1000)
        values = [src.next() for _ in range(5)]
        assert values == [1000, 1001, 1002, 1003, 1004]

    def test_follows_advancing_clock(self):
        times = iter([10, 50, 900])
        src = TimestampSource(now_ms=lambda: next(times))
        assert [src.next() for _ in range(3)] == [10, 50, 900]

    def test_collision_bump_then_resume(self):
        times = iter([10, 10, 10, 100])
        src = TimestampSource(now_ms=lambda: next(times))
        assert [src.next() for _ in range(4)] == [10, 11, 12, 100]

    def test_iterator_protocol(self):
        src = TimestampSource(now_ms=lambda: 5)
        it = iter(src)
        assert next(it) == 5
        assert next(it) == 6
