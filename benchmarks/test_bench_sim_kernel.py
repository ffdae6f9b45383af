"""Bench: DES-kernel micro-benchmarks (events/sec on the hot paths).

Exercises the scheduler's four hottest shapes in isolation, with no
model code in the loop, so kernel regressions are visible before they
wash out in the end-to-end workload bench:

* ``event_churn``      — sync resume of already-completed events
                         (the pooled ``completed_event`` fast path)
* ``timeout_storm``    — many concurrent timers through the heap
                         (Timeout free-list + flattened run loop)
* ``process_ping_pong``— two processes alternating over Stores
                         (``_GetEvent`` pooling + store fast paths)
* ``condition_fanin``  — AllOf/AnyOf fan-in over timeout batches
* ``cqe_storm``        — bursty CQE production into a CQ consumed
                         through its sink (``Store.set_sink``: each
                         CQE handed over at the put, no wakeup)

Each runs three times, keeps the fastest pass, and writes
``{"kernel": ...}`` to ``BENCH_host_perf.json``.  End-to-end workload
numbers come from ``bench/run.py``, not from this file.

CI perf-smoke gate: with ``REPRO_PERF_GATE=1`` the bench fails when
any mix in the committed baseline no longer runs, or when any
microbench drops below 0.7x the committed baseline's events/sec.
"""

import json
import os
import time
from pathlib import Path

from repro.sim import AllOf, AnyOf, Environment, Store

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_host_perf.json"

REPEATS = 3
GATE_FLOOR = 0.7


def _churn(env: Environment, n: int):
    for _ in range(n):
        yield env.completed_event(1)


def _timer(env: Environment, n: int, step: float):
    for _ in range(n):
        yield env.timeout(step)


def _ping(env: Environment, req: Store, rsp: Store, n: int):
    for _ in range(n):
        req.put_nowait(1)
        yield rsp.get()


def _pong(env: Environment, req: Store, rsp: Store):
    while True:
        yield req.get()
        rsp.put_nowait(1)


def _fanin(env: Environment, rounds: int, width: int):
    for i in range(rounds):
        yield AllOf(env, [env.timeout(d + 1.0) for d in range(width)])
        yield AnyOf(env, [env.timeout(d + 1.0) for d in range(width)])


def bench_event_churn():
    # Sync resumes never reach the heap (that is the fast path under
    # test), so the loop count is the event count here.
    env = Environment()
    env.process(_churn(env, 150_000), name="churn")
    env.run()
    return env.events_processed + 150_000


def bench_timeout_storm():
    env = Environment()
    for i in range(200):
        env.process(_timer(env, 1_000, 1.0 + i * 0.01), name=f"t{i}")
    env.run()
    return env.events_processed


def bench_process_ping_pong():
    env = Environment()
    req, rsp = Store(env, name="req"), Store(env, name="rsp")
    done = env.process(_ping(env, req, rsp, 60_000), name="ping")
    env.process(_pong(env, req, rsp), name="pong")
    env.run(until=done)
    return env.events_processed


def bench_condition_fanin():
    env = Environment()
    env.process(_fanin(env, 4_000, 8), name="fanin")
    env.run()
    return env.events_processed


def _cqe_burster(env: Environment, cq: Store, bursts: int, width: int):
    for burst in range(bursts):
        for i in range(width):
            cq.put_nowait((burst, i))
        yield env.timeout(1.0)


def bench_cqe_storm():
    # A CQ consumer under completion bursts: the CQ's sink takes each
    # CQE at the put, with no consumer process or wakeup — the path
    # every RNIC CQ in the model takes.  Sunk CQEs are model events
    # serviced without kernel events, so they count alongside the heap
    # events.
    env = Environment()
    cq = Store(env, name="cq")
    drained = [0]

    def sink(_cqe):
        drained[0] += 1

    cq.set_sink(sink)
    done = env.process(_cqe_burster(env, cq, 2_000, 64), name="burst")
    env.run(until=done)
    return env.events_processed + drained[0]


MICROBENCHES = {
    "event_churn": bench_event_churn,
    "timeout_storm": bench_timeout_storm,
    "process_ping_pong": bench_process_ping_pong,
    "condition_fanin": bench_condition_fanin,
    "cqe_storm": bench_cqe_storm,
}


def _best_of(fn, repeats=REPEATS):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, events)
    wall, events = best
    return {
        "wall_clock_s": round(wall, 4),
        "sim_events": events,
        "events_per_sec": round(events / wall) if wall else 0,
    }


def test_bench_sim_kernel(once):
    baseline = {}
    if OUT_PATH.exists():
        baseline = json.loads(OUT_PATH.read_text())["kernel"]

    def workload():
        return {name: _best_of(fn) for name, fn in MICROBENCHES.items()}

    kernel = once(workload)
    report = json.dumps({"kernel": kernel}, indent=1, sort_keys=True)
    OUT_PATH.write_text(report + "\n")
    print()
    print(report)

    for name, profile in kernel.items():
        assert profile["sim_events"] > 10_000, name  # it really ran

    if os.environ.get("REPRO_PERF_GATE"):
        assert baseline, "REPRO_PERF_GATE set but no committed baseline"
        missing = sorted(set(baseline) - set(kernel))
        assert not missing, f"baseline mixes no longer run: {missing}"
        for name, profile in kernel.items():
            committed = baseline.get(name)
            if committed is None:
                # A mix added after the committed baseline gates from
                # its next regeneration onward.
                continue
            floor = GATE_FLOOR * committed["events_per_sec"]
            assert profile["events_per_sec"] >= floor, (
                f"{name}: {profile['events_per_sec']} ev/s is below "
                f"{GATE_FLOOR}x the committed baseline "
                f"({committed['events_per_sec']} ev/s)"
            )
