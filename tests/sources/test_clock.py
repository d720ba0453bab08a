"""Unit tests for the simulated clock."""

import pytest

from repro.core.generic import makespan
from repro.sources.clock import (
    ClockStats,
    CostProfile,
    ParallelClock,
    SimClock,
    Stopwatch,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0.0

    def test_page_read_charges_io(self):
        clock = SimClock(CostProfile(io_ms=25.0))
        clock.charge_page_read(4)
        assert clock.now_ms == 100.0
        assert clock.stats.page_reads == 4

    def test_objects_charge_cpu(self):
        clock = SimClock(CostProfile(cpu_ms_per_object=9.0))
        clock.charge_objects(10)
        assert clock.now_ms == 90.0
        assert clock.stats.objects_processed == 10

    def test_message_charges_latency_and_bytes(self):
        clock = SimClock(CostProfile(net_ms_per_message=100.0, net_ms_per_byte=0.01))
        clock.charge_message(payload_bytes=1000)
        assert clock.now_ms == 110.0
        assert clock.stats.messages == 1
        assert clock.stats.bytes_shipped == 1000

    def test_seek_charges_overhead(self):
        clock = SimClock(CostProfile(seek_ms=5.0))
        clock.charge_seek()
        assert clock.now_ms == 5.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_elapsed_since(self):
        clock = SimClock()
        clock.advance(10.0)
        mark = clock.now_ms
        clock.advance(5.0)
        assert clock.elapsed_since(mark) == 5.0

    def test_reset(self):
        clock = SimClock()
        clock.charge_page_read()
        clock.reset()
        assert clock.now_ms == 0.0
        assert clock.stats == ClockStats()

    def test_default_profile_matches_paper(self):
        profile = CostProfile()
        assert profile.io_ms == 25.0
        assert profile.cpu_ms_per_object == 9.0


class TestMakespan:
    def test_empty_wave_is_free(self):
        assert makespan([]) == 0.0

    def test_unbounded_is_max(self):
        assert makespan([5.0, 3.0, 4.0]) == 5.0

    def test_single_slot_is_sum(self):
        assert makespan([5.0, 3.0, 4.0], max_concurrency=1) == 12.0

    def test_two_slots_list_schedules(self):
        # Greedy earliest-slot: 6 | 2+2+2 = both slots finish at 6.
        assert makespan([6.0, 2.0, 2.0, 2.0], max_concurrency=2) == 6.0

    def test_cap_beyond_branch_count_is_max(self):
        assert makespan([4.0, 1.0], max_concurrency=16) == 4.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            makespan([1.0, -2.0])


class TestParallelClock:
    def test_wave_advances_by_makespan_not_sum(self):
        clock = SimClock()
        parallel = ParallelClock(clock)
        parallel.begin_wave()
        parallel.charge_branch(30.0)
        parallel.charge_branch(50.0)
        parallel.charge_branch(20.0)
        wave = parallel.commit_wave()
        assert clock.now_ms == 50.0
        assert wave.sequential_ms == 100.0
        assert wave.makespan_ms == 50.0
        assert wave.saved_ms == 50.0

    def test_messages_stay_serialized(self):
        clock = SimClock(CostProfile(net_ms_per_message=10.0))
        parallel = ParallelClock(clock)
        parallel.begin_wave()
        parallel.charge_message()
        parallel.charge_branch(100.0)
        parallel.charge_message()
        parallel.charge_branch(40.0)
        parallel.commit_wave()
        # 2 messages (sum) + max(100, 40).
        assert clock.now_ms == 120.0
        assert clock.stats.messages == 2

    def test_concurrency_cap_applies(self):
        clock = SimClock()
        parallel = ParallelClock(clock, max_concurrency=2)
        parallel.begin_wave()
        for duration in (10.0, 10.0, 10.0, 10.0):
            parallel.charge_branch(duration)
        wave = parallel.commit_wave()
        assert wave.makespan_ms == 20.0
        assert clock.now_ms == 20.0

    def test_cumulative_stats_accumulate(self):
        parallel = ParallelClock(SimClock())
        for _ in range(2):
            parallel.begin_wave()
            parallel.charge_branch(4.0)
            parallel.charge_branch(6.0)
            parallel.commit_wave()
        assert parallel.stats.waves == 2
        assert parallel.stats.branches == 4
        assert parallel.stats.sequential_ms == 20.0
        assert parallel.stats.makespan_ms == 12.0
        assert parallel.stats.saved_ms == 8.0

    def test_waves_do_not_nest(self):
        parallel = ParallelClock(SimClock())
        parallel.begin_wave()
        with pytest.raises(RuntimeError):
            parallel.begin_wave()

    def test_branch_outside_wave_rejected(self):
        parallel = ParallelClock(SimClock())
        with pytest.raises(RuntimeError):
            parallel.charge_branch(1.0)

    def test_commit_without_wave_rejected(self):
        parallel = ParallelClock(SimClock())
        with pytest.raises(RuntimeError):
            parallel.commit_wave()

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ValueError):
            ParallelClock(SimClock(), max_concurrency=0)


class TestStopwatch:
    def test_measures_span(self):
        clock = SimClock()
        clock.advance(7.0)
        watch = Stopwatch(clock)
        clock.advance(3.0)
        assert watch.elapsed_ms == 3.0

    def test_restart(self):
        clock = SimClock()
        watch = Stopwatch(clock)
        clock.advance(3.0)
        watch.restart()
        assert watch.elapsed_ms == 0.0
