"""Parallel experiment runner: deterministic in-order merge.

The contract (docs/PERFORMANCE.md): fanning a sweep's independent
points out over worker processes must be invisible in the output —
results merge in submission order and every point function is free of
process-global state, so serial and ``REPRO_JOBS=N`` runs are
byte-identical and simulation event counts match the seed exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.__main__ import digest
from repro.experiments.ext_overload import (run_ext_overload,
                                           run_overload_isolation)
from repro.experiments.fig12_primitives import run_fig12
from repro.experiments.fig16_boutique import run_boutique_point
from repro.experiments.parallel import default_jobs, joined, parallel_map
from repro.experiments.report import to_json
from repro.sim import Environment


def _affine(x, offset=0):
    return {"x": x, "y": 2 * x + offset}


def _square(x):
    return x * x


@settings(max_examples=10, deadline=None)
@given(xs=st.lists(st.integers(-1_000, 1_000), max_size=12),
       jobs=st.integers(min_value=0, max_value=4))
def test_parallel_map_matches_serial_in_order(xs, jobs):
    # One call list mixing two point functions: no trampoline needed.
    calls = [(_affine, (x,), {"offset": 7}) if x % 2 else (_square, (x,), {})
             for x in xs]
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_JOBS", "1")
        serial = parallel_map(calls)
        env.setenv("REPRO_JOBS", str(jobs))
        assert parallel_map(calls) == serial
    assert serial == [_affine(x, offset=7) if x % 2 else _square(x)
                      for x in xs]


def test_default_jobs_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert default_jobs() == 4
    monkeypatch.setenv("REPRO_JOBS", "abc")
    with pytest.raises(ValueError):
        default_jobs()


def _count_events(fn, *args, **kwargs):
    """Run ``fn`` summing events over every Environment it creates."""
    envs = []
    original_init = Environment.__init__

    def tracking_init(self, *a, **k):
        original_init(self, *a, **k)
        envs.append(self)

    Environment.__init__ = tracking_init
    try:
        result = fn(*args, **kwargs)
    finally:
        Environment.__init__ = original_init
    return result, sum(env.events_processed for env in envs)


class TestByteIdentity:
    def test_fig12_serial_vs_parallel(self, monkeypatch):
        kwargs = dict(sizes=(64,), concurrency=2, duration_us=5_000.0)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial, events = _count_events(run_fig12, **kwargs)
        monkeypatch.setenv("REPRO_JOBS", "4")
        fanned = run_fig12(**kwargs)
        assert to_json(serial) == to_json(fanned)
        # An exact count: a kernel or model change must not add, drop
        # or reorder events except on purpose.  Posted WRs as callback
        # chains dropped 25,906 on purpose (128,191 before).  Busy-until
        # cores dropped 4,539 more (102,285 before): the grant events of
        # contended claims on the pinned c0/c1 cores.  The echo's two CQ
        # poller processes became CQ sinks: 90,842 events (97,746
        # before), the pollers' start events and the getter wake that
        # fired through the heap for every burst of CQEs.
        assert events == 90_842

    def test_fig16_dne_point_event_count(self):
        # The DNE path's pin: one short palladium-dne Fig. 16 point
        # (ingress, DNE, RDMA and functions), exact like the fig12 one.
        # Sinks on the CQ and the Comch server inbox replaced the
        # engines' two poller processes: 53,605 events (53,609 before,
        # the pollers' start events on the two engines).  Handing each
        # item over inside the put then removed the hop between store
        # and engine, the same-instant wake that stood where a poller's
        # getter fired: 46,116 events (7,489 fewer).  The ingress CQ
        # became a sink too: 45,739 events (377 fewer), its poller's
        # start event and the getter wake of every burst of CQEs.
        point, events = _count_events(
            run_boutique_point, "palladium-dne", "Home Query", 8,
            duration_us=20_000.0)
        assert point["rps"] > 0
        assert events == 45_739

    def test_ext_overload_serial_vs_parallel(self, monkeypatch):
        scale = dict(duration_us=20_000.0, warmup_us=15_000.0)
        sweep = run_ext_overload.sweep(configs=("palladium-dne",),
                                       multipliers=(0.8, 2.0), **scale)
        # The second case is a multi-result entry: the sweep and its
        # isolation point share one map.
        for entry in (sweep,
                      joined(sweep, run_overload_isolation.sweep(**scale))):
            monkeypatch.delenv("REPRO_JOBS", raising=False)
            serial = entry()
            monkeypatch.setenv("REPRO_JOBS", "4")
            assert digest(entry()) == digest(serial)


@pytest.mark.parametrize("runs", [2])
def test_overload_point_free_of_process_global_state(runs):
    # Re-running the same point in one process must give the same
    # output a fresh process would: connection/request ids are scoped
    # per-environment, so RSS worker assignment cannot drift with
    # process history (the bug that once broke serial-vs-jobs merges).
    from repro.experiments.ext_overload import run_overload_point
    import json

    outs = [json.dumps(
        run_overload_point("palladium-dne", 0.8,
                           duration_us=20_000.0, warmup_us=15_000.0),
        sort_keys=True, default=str)
        for _ in range(runs)]
    assert len(set(outs)) == 1
