"""Tests for the discrete-event kernel (repro.sim.core)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_start():
    assert Environment(5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(10)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [10.0]


def test_timeout_value_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(30, "c"))
    env.process(proc(10, "a"))
    env.process(proc(20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in "abcd":
        env.process(proc(tag))
    env.run()
    assert order == list("abcd")


# Tiny delay pool so same-timestamp ties dominate the generated streams.
@given(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 32.0, 100.0]),
                max_size=200))
@settings(max_examples=200, deadline=None)
def test_same_timestamp_ties_resolve_identically(delays):
    # Ties break on scheduling order alone, so the firing order is the
    # stable sort of the delays, run after run.
    env = Environment()
    fired = []
    for i, delay in enumerate(delays):
        env.timeout(delay).callbacks.append(
            lambda _ev, i=i: fired.append(i))
    env.run()
    assert fired == sorted(range(len(delays)), key=lambda i: delays[i])
    assert env.events_processed == len(delays)


def test_manual_event_succeed():
    env = Environment()
    event = env.event()
    got = []

    def waiter():
        value = yield event
        got.append((env.now, value))

    def trigger():
        yield env.timeout(7)
        event.succeed(42)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(7.0, 42)]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        event.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        _ = env.event().value


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "result"

    def parent(got):
        value = yield env.process(child())
        got.append(value)

    got = []
    env.process(parent(got))
    env.run()
    assert got == ["result"]


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent(got):
        try:
            yield env.process(child())
        except ValueError as exc:
            got.append(str(exc))

    got = []
    env.process(parent(got))
    env.run()
    assert got == ["child failed"]


def test_unhandled_process_failure_aborts_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yield_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_time():
    env = Environment()
    log = []

    def proc():
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(proc())
    env.run(until=35)
    assert log == [10.0, 20.0, 30.0]
    assert env.now == 35.0


def test_run_until_past_rejected():
    env = Environment()
    env.process((env.timeout(1) for _ in range(1)))
    env.run(until=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event():
    env = Environment()

    def child():
        yield env.timeout(12)
        return "done"

    assert env.run(until=env.process(child())) == "done"
    assert env.now == 12.0


def test_run_until_event_never_fires():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=env.event())


def test_run_until_event_stops_right_after_its_callbacks():
    env = Environment()
    stop = env.timeout(5, value="stop")
    sibling = env.timeout(5, value="sibling")
    seen = []
    stop.callbacks.append(lambda event: seen.append(event.value))
    assert env.run(until=stop) == "stop"
    assert seen == ["stop"]
    # the same-instant sibling is still queued, not dispatched
    assert not sibling.processed
    assert env.now == 5.0
    assert env.peek() == env.now
    assert env.events_processed == 1


def test_run_until_failed_event_raises():
    env = Environment()
    stop = env.event()

    def failer():
        yield env.timeout(3)
        stop.fail(RuntimeError("nope"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="nope"):
        env.run(until=stop)
    assert env.now == 3.0


def test_run_until_processed_event_returns_without_dispatching():
    env = Environment()
    stop = env.timeout(1, value="done")
    env.timeout(2)
    env.run(until=stop)
    dispatched = env.events_processed
    assert env.run(until=stop) == "done"
    assert env.events_processed == dispatched
    assert env.now == 1.0
    assert env.peek() == 2.0


def test_run_until_time_includes_events_at_the_boundary():
    env = Environment()
    fired = []
    for delay in (5.0, 10.0, 10.0, 10.5, 15.0):
        env.defer(delay, lambda delay=delay: fired.append(delay))
    env.run(until=10.0)
    assert fired == [5.0, 10.0, 10.0]
    assert env.events_processed == 3
    assert env.now == 10.0
    assert env.peek() == 10.5


@pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
def test_run_until_non_finite_time_rejected(until):
    env = Environment()
    env.timeout(1)
    with pytest.raises(ValueError, match="finite"):
        env.run(until=until)
    assert env.now == 0.0
    assert env.events_processed == 0


def test_run_until_event_from_another_environment_rejected():
    env, other = Environment(), Environment()
    env.timeout(1)
    with pytest.raises(SimulationError, match="another environment"):
        env.run(until=other.event())
    assert env.events_processed == 0


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(20, value="slow")
        result = yield AnyOf(env, [t1, t2])
        log.append((env.now, result, t1.processed, t2.processed))

    env.process(proc())
    env.run()
    assert log == [(10.0, None, True, False)]


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        members = [env.timeout(10), env.timeout(25)]
        result = yield AllOf(env, members)
        log.append((env.now, result, [m.processed for m in members]))

    env.process(proc())
    env.run()
    assert log == [(25.0, None, [True, True])]


def test_empty_condition_fires_immediately():
    env = Environment()
    log = []

    def proc():
        yield AllOf(env, [])
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0.0]


def test_defer_runs_callback():
    env = Environment()
    log = []
    env.defer(5, lambda: log.append(env.now))
    env.defer(2, lambda: log.append(env.now))
    env.run()
    assert log == [2.0, 5.0]


def test_completed_event_resumes_synchronously():
    env = Environment()
    log = []

    def proc():
        value = yield env.completed_event("instant")
        log.append((env.now, value))
        yield env.timeout(1)
        log.append((env.now, "after"))

    env.process(proc())
    env.run()
    assert log == [(0.0, "instant"), (1.0, "after")]


def test_determinism_same_seed_same_trace():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(i):
            for step in range(3):
                yield env.timeout(1 + (i * 7 + step) % 5)
                trace.append((env.now, i, step))

        for i in range(5):
            env.process(worker(i))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


# -- guard timers: Timeout.cancel and Environment.within ----------------------

def test_cancelled_timer_never_fires_and_is_not_counted():
    env = Environment()
    fired = []
    timer = env.timeout(10)
    timer.callbacks.append(lambda _ev: fired.append(env.now))
    env.timeout(5)
    timer.cancel()
    assert timer.callbacks is None  # the callback chain is released at once
    env.run()
    assert fired == []
    assert env.events_processed == 1
    # The dead entry does not move the clock either.
    assert env.now == 5.0


def test_cancel_after_fire_is_a_no_op():
    env = Environment()
    timer = env.timeout(3, value="done")
    env.run()
    timer.cancel()
    timer.cancel()
    assert timer.processed and timer.ok and timer.value == "done"
    assert env.events_processed == 1
    env.run()
    assert env.events_processed == 1


def test_waiting_on_a_cancelled_timer_raises():
    env = Environment()
    timer = env.timeout(3)
    timer.cancel()
    caught = []

    def proc():
        try:
            yield timer
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught == ["waited on a cancelled timer"]


def test_peek_skips_cancelled_heads():
    env = Environment()
    early = env.timeout(1)
    env.timeout(4)
    env.timeout(6)
    early.cancel()
    assert env.peek() == 4.0


def _raw_guard(env, event, delay):
    # The guarded wait as written before cancellation existed: the
    # losing timer stays in the heap and fires into a spent AnyOf.
    timer = env.timeout(delay)
    yield AnyOf(env, [event, timer])
    return event.triggered


def _guarded_race(guard, event_at, guard_at, event_first):
    """One guarded wait racing an event; returns what the waiter saw
    plus the trace of every other event, and the event count."""
    env = Environment()
    ev = env.event()
    seen, trace = [], []

    def firer():
        yield env.timeout(event_at)
        ev.succeed("payload")

    def waiter():
        won = yield from guard(env, ev, guard_at)
        seen.append((won, env.now, ev.value if won else None))

    def bystander():
        for _ in range(4):
            yield env.timeout(guard_at / 2)
            trace.append(env.now)

    if event_first:
        env.process(firer())
        env.process(waiter())
    else:
        env.process(waiter())
        env.process(firer())
    env.process(bystander())
    env.run()
    return seen, trace, env.events_processed


@pytest.mark.parametrize("event_first", [True, False])
@pytest.mark.parametrize("event_at", [2.0, 10.0, 30.0])
def test_within_matches_the_uncancelled_guard(event_at, event_first):
    # Same instant (10 vs 10) included, in both scheduling orders: the
    # waiter sees exactly what it saw before, and every other event
    # fires at the same time.
    new = _guarded_race(Environment.within, event_at, 10.0, event_first)
    old = _guarded_race(_raw_guard, event_at, 10.0, event_first)
    assert new[:2] == old[:2]
    won = new[0][0][0]
    # Only the guard timer that lost its race is missing from the count.
    lost_guard_pending = won and event_at < 10.0
    assert new[2] == old[2] - lost_guard_pending


def test_cancelled_timer_is_not_reused_while_its_entry_is_queued():
    env = Environment()
    for _ in range(8):  # warm the free list
        env.timeout(1.0)
    env.run()
    assert env._timeout_pool
    for delay in range(10, 20):  # enough live entries to defer compaction
        env.timeout(float(delay))
    timer = env.timeout(5.0)
    timer.cancel()
    cancelled_id = id(timer)
    del timer  # only the dead heap entry keeps it alive now
    fresh = [env.timeout(2.0) for _ in range(8)]
    assert cancelled_id not in {id(t) for t in fresh}
    fired = []
    for t in fresh:
        t.callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    assert fired == [3.0] * 8  # nothing fired at the dead entry's time


def test_cancelled_timer_never_returns_to_the_free_list():
    env = Environment()
    for delay in range(10, 20):  # enough live entries to defer compaction
        env.timeout(float(delay))
    timer = env.timeout(5.0)
    timer.cancel()
    del timer  # only the dead heap entry keeps it alive now
    env.run()
    # The run popped the dead entry (no compaction) and pooled the ten
    # live timers, but not the cancelled one.
    assert env._cancelled == 0
    assert len(env._timeout_pool) == 10
    assert all(t.callbacks is not None or t._ok for t in env._timeout_pool)


def test_failure_from_a_cancelled_timer_is_live_work():
    # An AnyOf over a cancelled timer fails with the timer's error.
    # That failed AnyOf, and the process that does not catch it, are
    # live heap entries: neither peek() nor a compaction may drop them.
    env = Environment()
    first = env.timeout(3)
    first.cancel()
    second = env.timeout(3)
    second.cancel()
    # Each cancelled timer carries its own exception.
    assert first.value is not second.value

    def compact():
        for delay in (5.0, 6.0):  # the second cancel compacts
            env.timeout(delay).cancel()
        assert env._cancelled == 0  # the heap was just rebuilt

    cond = AnyOf(env, [env.event(), first])
    assert cond.triggered and not cond.ok
    assert env.peek() == 0.0
    compact()
    assert [entry[3] for entry in env._queue] == [cond]

    def waiter():
        yield cond  # does not catch

    proc = env.process(waiter())
    with pytest.raises(SimulationError, match="cancelled timer"):
        env.run(until=cond)
    assert proc.triggered and not proc.ok
    assert env.peek() == 0.0
    compact()
    assert [entry[3] for entry in env._queue] == [proc]
    # The unhandled failure still reaches the run loop.
    with pytest.raises(SimulationError, match="cancelled timer"):
        env.run()


@given(
    delays=st.lists(st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0, 8.0]),
                    min_size=1, max_size=40),
    cancels=st.lists(st.tuples(st.integers(0, 39),
                               st.sampled_from([0.0, 1.0, 2.0, 4.0, 9.0])),
                     max_size=40),
    cancels_first=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_cancel_preserves_the_order_of_every_other_event(
        delays, cancels, cancels_first):
    # Reference: instead of cancelling, a timer's callback becomes a
    # no-op.  With cancellation, every other event fires in the same
    # order at the same time, and only the dead timers go uncounted.
    # Scheduling the cancels first puts a same-instant cancel ahead of
    # its timer; scheduling them last puts it behind.
    def run(cancel):
        env = Environment()
        fired, muted = [], set()
        timers = []

        def arm():
            for i, delay in enumerate(delays):
                timer = env.timeout(delay)
                timer.callbacks.append(
                    lambda _ev, i=i: i in muted
                    or fired.append((env.now, "t", i)))
                timers.append(timer)

        if not cancels_first:
            arm()
        for index, at in cancels:
            i = index % len(delays)

            def stop(i=i):
                fired.append((env.now, "c", i))
                if cancel:
                    timers[i].cancel()
                elif not timers[i].processed:
                    muted.add(i)
            env.defer(at, stop)
        if cancels_first:
            arm()
        env.run()
        return fired, env.events_processed, len(muted)

    new_fired, new_count, _ = run(cancel=True)
    old_fired, old_count, muted = run(cancel=False)
    assert new_fired == old_fired
    assert new_count == old_count - muted


def test_timeout_at_fires_at_exactly_the_absolute_time():
    env = Environment()
    t1, ser, base = 0.7, 0.2, 2.0
    arrival = t1 + ser + base
    # A relative delay taken from t1 lands one ulp late: this is why
    # busy-until stages schedule at absolute times.
    assert t1 + (arrival - t1) != arrival
    log = []

    def proc():
        yield env.timeout(t1)
        yield env.timeout_at(arrival)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [arrival]


def test_timeout_at_and_defer_at_reject_past_times():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.timeout_at(4.999)
    with pytest.raises(ValueError):
        env.defer_at(4.0, lambda: None)
    env.timeout_at(5.0)  # now itself is not in the past
    env.run()
    assert env.now == 5.0


def test_timeout_at_is_counted_and_reuses_the_timer_free_list():
    env = Environment()
    env.timeout(1.0)
    env.run()
    assert len(env._timeout_pool) == 1
    pooled = id(env._timeout_pool[0])
    timer = env.timeout_at(3.0, value="v")
    assert id(timer) == pooled and not env._timeout_pool
    seen = []
    timer.callbacks.append(lambda ev: seen.append((env.now, ev.value)))
    del timer
    env.defer_at(4.0, lambda: seen.append((env.now, "deferred")))
    env.run()
    assert seen == [(3.0, "v"), (4.0, "deferred")]
    assert env.events_processed == 3
    # fired and released: back on the free list for the next timer
    assert [id(t) for t in env._timeout_pool] == [pooled]
