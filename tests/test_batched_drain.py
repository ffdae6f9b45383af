"""Batched CQE draining is observationally identical to per-CQE gets.

The dataplane's ``poll_batch`` exists to cut kernel wakeups, not to
change what a consumer sees.  These tests pin that down two ways: a
hypothesis property over scripted put bursts on a bare
:class:`Store`, and an end-to-end recorded fault-flush sequence
(successful sends, then a QP error flushing the rest) consumed once
CQE-by-CQE and once in batches.  ``cq.get()`` is deliberately used
here as the single-CQE reference consumer — the dataplane lint only
polices ``src/repro`` outside the rdma package.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel
from repro.hw import build_cluster
from repro.memory import MemoryPool
from repro.rdma import ConnectionManager, Opcode, RdmaFabric, WorkRequest
from repro.sim import Environment, Store


# ---------------------------------------------------------------------------
# store-level property: scripted bursts, two consumer styles
# ---------------------------------------------------------------------------

_bursts = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
              st.integers(min_value=1, max_value=6)),
    min_size=1, max_size=20)


def _run_consumer(bursts, batched):
    """Producer replays ``bursts``; consumer records (now, item).

    Returns (records, heap events, consumer resumptions, final now).
    Heap-event counts must match between styles — the byte-identity
    gates depend on that — so the batched win shows up as fewer
    consumer resumptions (and get-event allocations), not fewer
    kernel events.
    """
    env = Environment()
    store = Store(env)
    records = []
    yields = [0]

    def producer():
        seq = 0
        for delay, count in bursts:
            yield env.timeout(delay)
            for _ in range(count):
                store.put_nowait(seq)
                seq += 1

    def single():
        while True:
            item = yield store.get()
            yields[0] += 1
            records.append((env.now, item))

    def batch():
        while True:
            items = yield store.poll_batch()
            yields[0] += 1
            for item in items:
                records.append((env.now, item))

    env.process(producer(), name="producer")
    env.process(batch() if batched else single(), name="consumer")
    env.run()
    return records, env.events_processed, yields[0], env.now


@given(_bursts)
@settings(max_examples=150, deadline=None)
def test_batched_consumer_sees_the_single_get_trace(bursts):
    single = _run_consumer(bursts, batched=False)
    batched = _run_consumer(bursts, batched=True)
    # identical items at identical times, identical kernel-event count
    # (the gate invariant), identical final clock...
    assert batched[0] == single[0]
    assert batched[1] == single[1]
    assert batched[3] == single[3]
    # ...with at most as many consumer resumptions
    assert batched[2] <= single[2]


def test_burst_drains_in_one_resumption_per_wakeup():
    bursts = [(1.0, 5)]
    single = _run_consumer(bursts, batched=False)
    batched = _run_consumer(bursts, batched=True)
    assert batched[0] == single[0]
    assert batched[1] == single[1]
    # five same-instant puts: single-get resumes per item (five get
    # events), the batch poll resumes per burst
    assert single[2] == 5
    assert batched[2] < single[2]


def test_poll_batch_sync_fast_path_takes_every_ready_item():
    env = Environment()
    store = Store(env)
    for i in range(4):
        store.put_nowait(i)
    got = []

    def consumer():
        ready = store.poll_batch()
        got.append(ready.processed)  # fast path: no trip through the heap
        items = yield ready
        got.append(items)
        store.put_nowait(4)
        items = yield store.poll_batch()
        got.append(items)

    env.process(consumer(), name="consumer")
    env.run()
    assert got == [True, [0, 1, 2, 3], [4]]
    assert store.get_count == 5
    # process start and exit only: neither poll touched the heap
    assert env.events_processed == 2


# ---------------------------------------------------------------------------
# end to end: a recorded fault-flush CQE sequence
# ---------------------------------------------------------------------------

def _run_fault_flush(batched):
    """Two good SENDs, QP error, three flushed posts; drain r0's CQ.

    Explicit ``wr_id``s keep the two runs comparable (the default ids
    come from a process-global counter).
    """
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    r0 = fabric.install_rnic("worker0")
    r1 = fabric.install_rnic("worker1")
    p0 = MemoryPool(env, "t", 16, 4096, name="p0")
    p1 = MemoryPool(env, "t", 16, 4096, name="p1")
    r0.register_pool(p0)
    r1.register_pool(p1)
    cm = ConnectionManager(env, fabric, "worker0", cost)
    holder = {}

    def setup():
        holder["qp"] = (yield from cm.warm_up("worker1", "t", 1))[0]

    env.process(setup())
    env.run()
    qp = holder["qp"]

    records = []
    yields = [0]

    def single():
        cq = r0.cq
        while True:
            c = yield cq.get()
            yields[0] += 1
            records.append((env.now, c.wr_id, c.opcode, c.ok, c.flushed))

    def batch():
        cq = r0.cq
        while True:
            batch = yield cq.poll_batch()
            yields[0] += 1
            for c in batch:
                records.append((env.now, c.wr_id, c.opcode, c.ok, c.flushed))

    def driver():
        # posted receives so the two healthy SENDs complete (no RNR)
        r1.post_recv("t", p1.get("dne1"), "dne1")
        r1.post_recv("t", p1.get("dne1"), "dne1")
        r0.post_send(qp, WorkRequest(opcode=Opcode.SEND, length=64,
                                     wr_id=9001))
        r0.post_send(qp, WorkRequest(opcode=Opcode.SEND, length=256,
                                     wr_id=9002))
        yield env.timeout(5_000.0)
        cm.fail_connections(cause="injected")
        for i, wr_id in enumerate((9003, 9004, 9005)):
            r0.post_send(qp, WorkRequest(opcode=Opcode.SEND,
                                         length=64 + i, wr_id=wr_id))
        yield env.timeout(5_000.0)

    env.process(batch() if batched else single(), name="consumer")
    env.process(driver(), name="driver")
    env.run()
    state = (r0.flushed_cqes, qp.pending_wrs, r0.cq.put_count,
             r0.cq.get_count, len(r0.cq.items))
    return records, state, env.events_processed, yields[0], env.now


def test_fault_flush_sequence_drains_identically_in_batches():
    single = _run_fault_flush(batched=False)
    batched = _run_fault_flush(batched=True)

    records = single[0]
    # the recorded sequence is what the fault model promises: two good
    # completions, then the three flushed failures, FIFO by wr_id
    assert [r[1] for r in records] == [9001, 9002, 9003, 9004, 9005]
    assert [r[3] for r in records] == [True, True, False, False, False]
    assert [r[4] for r in records] == [False, False, True, True, True]

    # batched drain: same records at the same instants, same producer
    # state, same kernel-event count (the gate invariant), same final
    # clock — with fewer consumer resumptions (the flushed CQEs land
    # as one burst)
    assert batched[0] == single[0]
    assert batched[1] == single[1]
    assert batched[2] == single[2]
    assert batched[4] == single[4]
    assert batched[3] < single[3]
