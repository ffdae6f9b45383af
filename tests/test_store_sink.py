"""A store's sink sees what a ``get()`` loop sees, with no consumer process.

Every completion queue in the model is consumed through its sink
(``Store.set_sink``): the store hands each item over at the put.  These
tests pin down that the hand-over changes no observation, only the
kernel work: a hypothesis property over scripted put bursts on a bare
:class:`Store`, an end-to-end recorded fault-flush sequence (successful
sends, then a QP error flushing the rest) read once through ``r0.cq``'s
sink and once by a ``cq.get()`` loop, and the hand-over rules of
``set_sink`` itself.  ``cq.get()`` is deliberately used here as the
reference consumer; the dataplane lint only polices ``src/repro``.
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


def _run_consumer(bursts, sink):
    """Producer replays ``bursts``; consumer records (now, item).

    Returns (records, heap events, final now).
    """
    env = Environment()
    store = Store(env)
    records = []

    def producer():
        seq = 0
        for delay, count in bursts:
            yield env.timeout(delay)
            for _ in range(count):
                store.put_nowait(seq)
                seq += 1

    def getter():
        while True:
            item = yield store.get()
            records.append((env.now, item))

    env.process(producer(), name="producer")
    if sink:
        store.set_sink(lambda item: records.append((env.now, item)))
    else:
        env.process(getter(), name="consumer")
    env.run()
    return records, env.events_processed, env.now


@given(_bursts)
@settings(max_examples=150, deadline=None)
def test_sink_consumer_sees_the_single_get_trace(bursts):
    single = _run_consumer(bursts, sink=False)
    sunk = _run_consumer(bursts, sink=True)
    # identical items at identical times and an identical final clock,
    # with no more kernel events
    assert sunk[0] == single[0]
    assert sunk[2] == single[2]
    assert sunk[1] <= single[1]


def test_burst_reaches_the_sink_with_no_heap_event():
    bursts = [(1.0, 5)]
    single = _run_consumer(bursts, sink=False)
    sunk = _run_consumer(bursts, sink=True)
    assert sunk[0] == single[0] == [(1.0, i) for i in range(5)]
    # the getter loop pays its start and the wake of its first get;
    # the sink pays nothing beyond the producer's own events
    assert sunk[1] < single[1]


# ---------------------------------------------------------------------------
# end to end: a recorded fault-flush CQE sequence
# ---------------------------------------------------------------------------

def _run_fault_flush(sink):
    """Two good SENDs, QP error, three flushed posts; read r0's CQ.

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

    def record(c):
        records.append((env.now, c.wr_id, c.opcode, c.ok, c.flushed))

    def getter():
        while True:
            record((yield r0.cq.get()))

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

    if sink:
        r0.cq.set_sink(record)
    else:
        env.process(getter(), name="consumer")
    env.process(driver(), name="driver")
    env.run()
    state = (r0.flushed_cqes, qp.pending_wrs, len(r0.cq.items))
    return records, state, env.now


def test_fault_flush_sequence_reads_identically_through_a_sink():
    single = _run_fault_flush(sink=False)
    sunk = _run_fault_flush(sink=True)

    records = single[0]
    # the recorded sequence is what the fault model promises: two good
    # completions, then the three flushed failures, FIFO by wr_id
    assert [r[1] for r in records] == [9001, 9002, 9003, 9004, 9005]
    assert [r[3] for r in records] == [True, True, False, False, False]
    assert [r[4] for r in records] == [False, False, True, True, True]

    # through the sink: the same records at the same instants, the same
    # producer state and an empty CQ, the same final clock
    assert sunk[0] == single[0]
    assert sunk[1] == single[1]
    assert sunk[1][2] == 0
    assert sunk[2] == single[2]


# ---------------------------------------------------------------------------
# set_sink's hand-over rules
# ---------------------------------------------------------------------------

def test_set_sink_hands_queued_items_over_in_fifo_order():
    env = Environment()
    store = Store(env)
    for i in range(3):
        store.put_nowait(i)
    got = []
    store.set_sink(got.append)
    assert got == [0, 1, 2]
    assert not store.items
    store.put_nowait(3)
    assert got == [0, 1, 2, 3]
    assert env.events_processed == 0


def test_set_sink_none_makes_later_puts_queue_again():
    env = Environment()
    store = Store(env)
    got = []
    store.set_sink(got.append)
    store.put_nowait("a")
    store.set_sink(None)
    store.put_nowait("b")
    store.put_nowait("c")
    assert got == ["a"]
    assert list(store.items) == ["b", "c"]
    assert store.try_get() == "b"
    # a new sink first takes what queued meanwhile
    store.set_sink(got.append)
    assert got == ["a", "c"]
    assert not store.items
