"""Unit tests for measurement helpers."""

import pytest

from repro.sim import Environment
from repro.sim.stats import BusyTracker, LatencyRecorder, MeasurementWindow


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
    assert LatencyRecorder((4.0, 1.0, 3.0, 2.0)).percentile(50) == 2.0


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
    with pytest.raises(ValueError):
        LatencyRecorder([1.0, -1.0])


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


def _complete_at(env, window, issued_at, completes_at):
    """A process that completes an op issued at ``issued_at`` at
    ``completes_at``."""

    def op(env):
        yield env.timeout(completes_at - env.now)
        window.complete(issued_at)

    env.process(op(env))


def test_window_counts_completions_exactly_at_open_and_close():
    env = Environment()
    window = MeasurementWindow(env, warmup=1.0, duration=2.0)
    assert (window.start, window.end) == (1.0, 3.0)
    _complete_at(env, window, issued_at=1.0, completes_at=1.0)
    _complete_at(env, window, issued_at=2.0, completes_at=3.0)
    env.run(until=window.end)
    assert window.ops == 2
    assert window.samples == 2
    assert window.latency.maximum == 1.0


def test_window_counts_ops_issued_before_open_but_does_not_sample_them():
    env = Environment()
    window = MeasurementWindow(env, warmup=1.0, duration=2.0)
    _complete_at(env, window, issued_at=0.5, completes_at=2.0)
    env.run(until=window.end)
    assert window.ops == 1
    assert window.samples == 0


def test_window_ignores_completions_before_open_and_after_close():
    env = Environment()
    window = MeasurementWindow(env, warmup=1.0, duration=2.0)
    _complete_at(env, window, issued_at=0.0, completes_at=0.5)
    _complete_at(env, window, issued_at=2.5, completes_at=3.5)
    env.run(until=4.0)
    assert window.ops == 0
    assert window.samples == 0


def test_empty_window_has_no_ops_and_no_samples():
    env = Environment()
    window = MeasurementWindow(env, warmup=1.0, duration=2.0)
    env.run(until=window.end)
    assert (window.ops, window.bytes, window.samples) == (0, 0, 0)


def test_window_weights_ops_and_bytes_and_opens_after_it_is_made():
    env = Environment()
    env.run(until=5.0)
    window = MeasurementWindow(env, warmup=1.0, duration=2.0)
    assert (window.start, window.end) == (6.0, 8.0)
    assert not window.count(weight=4, nbytes=4096)
    env.run(until=7.0)
    assert window.complete(6.5, weight=4, nbytes=4096) == 0.5
    assert (window.ops, window.bytes, window.samples) == (4, 4096, 1)


def test_window_opens_and_closes_the_cpu_window_at_its_instants():
    env = Environment()
    calls = []

    class Ssd:
        commands_served = 3

    class Target:
        ssds = [Ssd(), Ssd()]

    class Cluster:
        class driver:
            commands_sent = 7

        targets = [Target(), Target()]

        def start_cpu_window(self):
            calls.append(("start", env.now))

        def stop_cpu_window(self):
            calls.append(("stop", env.now))

    window = MeasurementWindow(env, warmup=1.0, duration=2.0)
    window.watch_cpu(Cluster())
    env.run(until=4.0)
    assert calls == [("start", 1.0), ("stop", 3.0)]
    assert window.commands_at_start == 7
    assert window.served_at_start == 12
