"""Unit tests for the simulator clock and run loop."""

import pytest

from repro.simulation import SimulationError, Simulator


def test_clock_starts_at_zero_by_default():
    assert Simulator().now == 0.0


def test_schedule_advances_clock_to_event_time():
    sim = Simulator()
    fired_at = []
    sim.schedule(2.5, lambda: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [2.5]
    assert sim.now == 2.5


def test_schedule_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_fast_forwards_clock():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    processed = sim.run(until=50.0)
    assert processed == 0
    assert sim.now == 50.0
    assert sim.pending_events == 1


def test_run_until_processes_events_up_to_bound():
    sim = Simulator()
    seen = []
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, seen.append, delay)
    sim.run(until=2.0)
    assert seen == [1.0, 2.0]


def test_run_until_before_now_rejected():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_stop_exits_run_loop():
    sim = Simulator()
    seen = []

    def first():
        seen.append(1)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, seen.append, 2)
    sim.run()
    assert seen == [1]
    assert sim.pending_events == 1


def test_max_events_bounds_processing():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending_events == 6


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_reset_rewinds_clock_and_clears_queue():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(1.0, lambda: None)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_deterministic_tie_break_is_fifo():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == ["a", "b", "c"]
