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
