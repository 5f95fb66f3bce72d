"""Unit tests for measurement helpers."""

import pytest

from repro.sim import Environment
from repro.sim.stats import BusyTracker, LatencyRecorder


def test_latency_recorder_statistics():
    recorder = LatencyRecorder()
    for value in (1.0, 2.0, 3.0, 4.0):
        recorder.record(value)
    assert recorder.count == 4
    assert recorder.mean == pytest.approx(2.5)
    assert recorder.maximum == 4.0
    assert recorder.percentile(50) == 2.0
    assert recorder.percentile(100) == 4.0
    assert recorder.p99 == 4.0


def test_latency_recorder_empty():
    recorder = LatencyRecorder()
    assert recorder.mean == 0.0
    assert recorder.p99 == 0.0
    assert recorder.maximum == 0.0


def test_latency_recorder_validation():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-1.0)
    with pytest.raises(ValueError):
        recorder.percentile(101)


def test_busy_tracker_nested_sections_count_once():
    env = Environment()
    tracker = BusyTracker(env)
    tracker.begin()
    tracker.begin()  # nested

    def advance(env):
        yield env.timeout(3.0)

    env.process(advance(env))
    env.run()
    tracker.end()
    tracker.end()
    assert tracker.busy_time == pytest.approx(3.0)


def test_busy_tracker_end_without_begin():
    env = Environment()
    tracker = BusyTracker(env)
    with pytest.raises(RuntimeError):
        tracker.end()


def test_busy_tracker_utilization_window():
    env = Environment()
    tracker = BusyTracker(env)

    def work(env):
        tracker.start_window()
        tracker.begin()
        yield env.timeout(1.0)
        tracker.end()
        yield env.timeout(1.0)
        tracker.stop_window()

    env.process(work(env))
    env.run()
    assert tracker.utilization() == pytest.approx(0.5)
