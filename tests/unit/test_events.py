"""Unit tests for the event queue."""


from repro.simulation.events import Event, EventQueue, HIGH_PRIORITY, LOW_PRIORITY


def test_push_pop_single_event():
    queue = EventQueue()
    fired = []
    queue.push(1.0, fired.append, ("a",))
    event = queue.pop()
    event.fire()
    assert fired == ["a"]


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    queue.push(3.0, lambda: None)
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    times = [queue.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_same_time_orders_by_priority_then_insertion():
    queue = EventQueue()
    order = []
    queue.push(1.0, order.append, ("normal-first",))
    queue.push(1.0, order.append, ("high",), HIGH_PRIORITY)
    queue.push(1.0, order.append, ("low",), LOW_PRIORITY)
    queue.push(1.0, order.append, ("normal-second",))
    while queue:
        queue.pop().fire()
    assert order == ["high", "normal-first", "normal-second", "low"]


def test_len_counts_live_events_only():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(first)
    assert len(queue) == 1


def test_cancelled_event_is_skipped_on_pop():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(first)
    assert queue.pop().time == 2.0
    assert queue.pop() is None


def test_double_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 1


def test_peek_time_skips_cancelled_head():
    queue = EventQueue()
    head = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    queue.cancel(head)
    assert queue.peek_time() == 5.0


def test_peek_time_empty_queue_is_none():
    assert EventQueue().peek_time() is None


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert not queue
    assert queue.pop() is None


def test_event_fire_passes_args():
    received = []
    event = Event(0.0, 0, 0, lambda a, b: received.append((a, b)), (1, 2))
    event.fire()
    assert received == [(1, 2)]


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda: None)
    assert queue
    queue.cancel(event)
    assert not queue


def test_len_consistent_under_interleaved_push_cancel_peek_pop():
    """Regression: peek_time used to pop cancelled heads on its own path;
    len(queue) must track the live count through any interleaving."""
    queue = EventQueue()
    live = []
    events = []
    for index in range(50):
        events.append(queue.push(float(index % 7), lambda: None))
        live.append(events[-1])
        if index % 3 == 0 and live:
            victim = live[len(live) // 2]
            queue.cancel(victim)
            live.remove(victim)
        if index % 4 == 0:
            queue.peek_time()
            assert len(queue) == len(live)
        if index % 5 == 0 and live:
            popped = queue.pop()
            assert not popped.cancelled
            live.remove(popped)
        assert len(queue) == len(live)
    drained = 0
    while queue:
        assert queue.pop() is not None
        drained += 1
    assert drained == len(live)
    assert queue.pop() is None
    assert len(queue) == 0


def test_compaction_preserves_order_and_len():
    """Cancelling enough events to trigger heap compaction must not
    disturb ordering or the live count."""
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(300)]
    # Cancel most of them so dead entries outnumber live ones.
    for event in events[::2]:
        queue.cancel(event)
    for event in events[1::4]:
        queue.cancel(event)
    expected = sorted(e.time for e in events if not e.cancelled)
    assert len(queue) == len(expected)
    assert queue._dead < EventQueue.COMPACT_MIN_DEAD or queue._dead <= queue._live
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == expected


def test_cancel_during_pop_interleaving_keeps_peek_consistent():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(2.0, lambda: None)
    third = queue.push(3.0, lambda: None)
    assert queue.peek_time() == 1.0
    queue.cancel(first)
    assert queue.peek_time() == 2.0
    assert len(queue) == 2
    assert queue.pop() is second
    queue.cancel(third)
    assert queue.peek_time() is None
    assert queue.pop() is None
    assert len(queue) == 0
