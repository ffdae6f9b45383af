"""Fast-path kernel tests: free-list recycling and steady-state
zero-allocation guarantees (docs/PERFORMANCE.md).

The scheduling hot path promises that steady-state churn — timeouts,
immediately-completed events, ``defer`` callbacks, store ping-pong,
guarded waits — reuses pooled objects (or frees them at once) instead
of accumulating them.  These tests pin that down two ways:
object-identity reuse (the same ``Timeout`` instance comes back from
the free-list) and a tracemalloc diff over the sim modules that must
stay flat once the pools are warm.
"""

import gc
import tracemalloc

from repro.sim import Environment, Event, Store
from repro.sim import core as sim_core
from repro.sim import resources as sim_resources

SIM_FILES = (sim_core.__file__, sim_resources.__file__)

#: a guard far beyond any workload here, so it never fires in a run
GUARD_US = 1e12


def _sim_growth(snap_before, snap_after) -> int:
    """Net bytes allocated in the sim modules between two snapshots."""
    stats = snap_after.compare_to(snap_before, "filename")
    return sum(s.size_diff for s in stats
               if s.traceback[0].filename in SIM_FILES)


def _steady_state_workload(env: Environment, rounds: int):
    """One process exercising every pooled shape."""
    store = Store(env, name="ss")

    def proc():
        for i in range(rounds):
            yield env.timeout(1.0)
            yield env.completed_event(i)
            env.defer(0.5, lambda: None)
            store.put_nowait(i)
            yield store.get()
            # A guarded wait whose guard timer loses the race.
            yield from env.within(env.timeout(0.5), GUARD_US)

    return env.process(proc(), name="steady")


class TestObjectReuse:
    def test_timeout_free_list_reuses_instances(self):
        env = Environment()
        seen = set()

        def proc():
            for _ in range(64):
                t = env.timeout(1.0)
                seen.add(id(t))
                yield t

        env.process(proc(), name="t")
        env.run()
        # With only one timeout in flight, the free-list serves the
        # same instance back every iteration after the first.
        assert len(seen) <= 2

    def test_completed_event_pool_reuses_instances(self):
        env = Environment()
        seen = set()

        def proc():
            for i in range(64):
                ev = env.completed_event(i)
                seen.add(id(ev))
                assert (yield ev) == i

        env.process(proc(), name="c")
        env.run()
        assert len(seen) <= 2

    def test_store_fast_path_get_reuses_instances(self):
        env = Environment()
        store = Store(env)
        seen = set()

        def proc():
            for i in range(64):
                store.put_nowait(i)
                ev = store.get()
                seen.add(id(ev))
                assert (yield ev) == i

        env.process(proc(), name="s")
        env.run()
        assert len(seen) <= 2

    def test_recycled_timeout_values_are_reset(self):
        env = Environment()
        values = []

        def proc():
            values.append((yield env.timeout(1.0, value="first")))
            # The recycled instance must not leak the previous value.
            values.append((yield env.timeout(1.0)))

        env.process(proc(), name="v")
        env.run()
        assert values == ["first", None]

    def test_held_event_is_not_recycled(self):
        env = Environment()
        held = []

        def proc():
            t = env.timeout(1.0, value="keep")
            held.append(t)  # an external reference pins the object
            yield t
            yield env.timeout(1.0)

        env.process(proc(), name="h")
        env.run()
        # The held timeout kept its identity and value; the kernel only
        # recycles events it exclusively owns (refcount-guarded).
        assert held[0].value == "keep"


class TestSteadyStateAllocation:
    def test_steady_state_loop_does_not_grow_sim_allocations(self):
        env = Environment()
        # Warm the free-lists and any lazy caches first.
        _steady_state_workload(env, 2_000)
        env.run()

        gc.collect()
        tracemalloc.start()
        snap1 = tracemalloc.take_snapshot()
        # Stop when the loop ends, long before any guard would fire: a
        # guard left in the heap would still hold its AnyOf here.
        env.run(until=_steady_state_workload(env, 20_000))
        gc.collect()
        snap2 = tracemalloc.take_snapshot()
        tracemalloc.stop()

        growth = _sim_growth(snap1, snap2)
        # 20k rounds x (Timeout + completed event + defer + store get)
        # would be ~80k event objects without pooling (> 5 MB), and 20k
        # uncancelled guards would pin 20k AnyOfs.  Steady state must
        # stay flat; allow a page of noise for caches.
        assert growth < 16_384, f"sim modules grew {growth} bytes"

    def test_event_base_class_is_not_pooled(self):
        # Only classes that opt in (_poolable) may be recycled: a plain
        # Event can carry user state and must keep its identity.
        assert Event._poolable is False
