"""Tests for the RDMA substrate: verbs, QPs, RNIC semantics, connections."""

import pytest

from repro.config import CostModel
from repro.dataplane import Message
from repro.hw import build_cluster
from repro.memory import BufferState, MemoryPool
from repro.rdma import (
    AtomicWord,
    ConnectionManager,
    Opcode,
    QPState,
    RDMA_HEADER_BYTES,
    RdmaFabric,
    ReceiveBufferRegistry,
    RegistrationError,
    WorkRequest,
)
from repro.sim import Environment


def make_fabric(cost=None):
    env = Environment()
    cost = cost or CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    r0 = fabric.install_rnic("worker0")
    r1 = fabric.install_rnic("worker1")
    return env, cost, fabric, r0, r1


def make_pools(env, r0, r1, count=16, size=4096):
    p0 = MemoryPool(env, "t", count, size, name="p0")
    p1 = MemoryPool(env, "t", count, size, name="p1")
    r0.register_pool(p0)
    r1.register_pool(p1)
    return p0, p1


def connect(env, fabric, cost):
    cm = ConnectionManager(env, fabric, "worker0", cost)
    holder = {}

    def setup():
        yield from cm.warm_up("worker1", "t", 1)
        holder["qp"] = yield from cm.get_connection("worker1", "t")

    env.process(setup())
    env.run()
    return cm, holder["qp"]


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def test_wire_bytes_by_opcode():
    send = WorkRequest(opcode=Opcode.SEND, length=1000)
    assert send.wire_bytes() == RDMA_HEADER_BYTES + 1000
    read = WorkRequest(opcode=Opcode.READ, length=1000)
    assert read.wire_bytes() == RDMA_HEADER_BYTES
    cas = WorkRequest(opcode=Opcode.CAS)
    assert cas.wire_bytes() == RDMA_HEADER_BYTES + 16


def test_wr_ids_unique():
    a = WorkRequest(opcode=Opcode.SEND)
    b = WorkRequest(opcode=Opcode.SEND)
    assert a.wr_id != b.wr_id


# ---------------------------------------------------------------------------
# RBR table
# ---------------------------------------------------------------------------

def test_rbr_insert_consume():
    rbr = ReceiveBufferRegistry()
    rbr.insert(1, "buf")
    assert rbr.consume(1) == "buf"
    assert rbr._table == {}
    assert rbr.posted == 1 and rbr.consumed == 1


def test_rbr_duplicate_insert_rejected():
    rbr = ReceiveBufferRegistry()
    rbr.insert(1, "a")
    with pytest.raises(KeyError):
        rbr.insert(1, "b")


def test_rbr_missing_consume_rejected():
    with pytest.raises(KeyError):
        ReceiveBufferRegistry().consume(9)


# ---------------------------------------------------------------------------
# MR registration
# ---------------------------------------------------------------------------

def test_unregistered_buffer_rejected():
    env, cost, fabric, r0, r1 = make_fabric()
    rogue = MemoryPool(env, "t", 2, 64)
    buf = rogue.get("a")
    with pytest.raises(RegistrationError):
        r0.mrt.lookup_buffer(buf)


def test_register_idempotent():
    env, cost, fabric, r0, r1 = make_fabric()
    pool = MemoryPool(env, "t", 2, 64)
    region1 = r0.register_pool(pool)
    region2 = r0.register_pool(pool)
    assert region1 is region2


def test_mtt_thrash_flag():
    env, cost, fabric, r0, r1 = make_fabric()
    r0.mrt.mtt_cache_entries = 2
    big = MemoryPool(env, "t", 4096, 2048)  # 4 hugepages
    r0.register_pool(big)
    assert r0._pipe_time(0) == cost.rnic_op_us * cost.qp_thrash_penalty


# ---------------------------------------------------------------------------
# Two-sided SEND semantics
# ---------------------------------------------------------------------------

def test_send_delivers_payload_into_posted_buffer():
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm, qp = connect(env, fabric, cost)

    recv_buf = p1.get("dne1")
    r1.post_recv("t", recv_buf, "dne1")
    src = p0.get("dne0")
    src.write("dne0", "hello", 5)

    def sender():
        wr = WorkRequest(opcode=Opcode.SEND, buffer=src, length=5,
                         message=Message(dst="fn-b"))
        yield from r0.execute(qp, wr)

    env.process(sender())
    env.run()
    completion = r1.cq.try_get()
    assert completion.is_recv and completion.ok
    assert completion.buffer is recv_buf
    assert recv_buf.payload == "hello"
    assert completion.message.dst == "fn-b"
    assert recv_buf.state == BufferState.IN_USE


def test_send_stalls_on_empty_rq_until_post():
    """Empty shared RQ = RNR: the transfer waits for a receive buffer."""
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm, qp = connect(env, fabric, cost)
    src = p0.get("dne0")
    src.write("dne0", "x", 1)
    done = []

    def sender():
        wr = WorkRequest(opcode=Opcode.SEND, buffer=src, length=1)
        yield from r0.execute(qp, wr)
        done.append(env.now)

    def late_post():
        yield env.timeout(500)
        r1.post_recv("t", p1.get("dne1"), "dne1")

    start = env.now
    env.process(sender())
    env.process(late_post())
    env.run()
    assert done and done[0] >= start + 500


def test_oversized_send_fails_receive():
    env, cost, fabric, r0, r1 = make_fabric()
    p0, _ = make_pools(env, r0, r1)
    small = MemoryPool(env, "t", 2, 16, name="small")
    r1.register_pool(small)
    cm, qp = connect(env, fabric, cost)
    r1.post_recv("t", small.get("dne1"), "dne1")
    src = p0.get("dne0")
    src.write("dne0", "jumbo", 1024)

    def sender():
        wr = WorkRequest(opcode=Opcode.SEND, buffer=src, length=1024)
        yield from r0.execute(qp, wr)

    env.process(sender())
    env.run()
    completion = r1.cq.try_get()
    assert completion.is_recv and not completion.ok


def test_srq_is_per_tenant():
    env, cost, fabric, r0, r1 = make_fabric()
    assert r1.srq("a") is r1.srq("a")
    assert r1.srq("a") is not r1.srq("b")


# ---------------------------------------------------------------------------
# One-sided semantics
# ---------------------------------------------------------------------------

def test_write_is_receiver_oblivious_and_counts_races():
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm, qp = connect(env, fabric, cost)
    target = p1.get("fn:victim")  # a function is using this buffer
    src = p0.get("dne0")
    src.write("dne0", "overwrite", 9)

    def writer():
        wr = WorkRequest(opcode=Opcode.WRITE, buffer=src, length=9,
                         remote_buffer=target)
        yield from r0.execute(qp, wr)

    env.process(writer())
    env.run()
    assert target.payload == "overwrite"  # landed despite the owner
    assert r1.potential_races == 1


def test_write_with_expected_owner_not_a_race():
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm, qp = connect(env, fabric, cost)
    target = p1.get("slots:worker0")
    src = p0.get("dne0")
    src.write("dne0", "ok", 2)

    def writer():
        wr = WorkRequest(opcode=Opcode.WRITE, buffer=src, length=2,
                         remote_buffer=target,
                         expected_owner="slots:worker0")
        yield from r0.execute(qp, wr)

    env.process(writer())
    env.run()
    assert r1.potential_races == 0


def test_read_returns_remote_payload():
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1)
    cm, qp = connect(env, fabric, cost)
    remote = p1.get("dne1")
    remote.write("dne1", "remote-data", 11)
    got = []

    def reader():
        wr = WorkRequest(opcode=Opcode.READ, remote_buffer=remote,
                         length=11, signaled=False)
        completion = yield from r0.execute(qp, wr)
        got.append(completion.payload)

    env.process(reader())
    env.run()
    assert got == ["remote-data"]


def test_cas_swaps_only_on_match():
    env, cost, fabric, r0, r1 = make_fabric()
    cm, qp = connect(env, fabric, cost)
    word = AtomicWord("worker1", 0)
    outcomes = []

    def caser():
        wr = WorkRequest(opcode=Opcode.CAS, compare=0, swap=7, signaled=False,
                         word=word)
        c = yield from r0.execute(qp, wr)
        outcomes.append(c.old_value)
        wr2 = WorkRequest(opcode=Opcode.CAS, compare=0, swap=9, signaled=False,
                          word=word)
        c2 = yield from r0.execute(qp, wr2)
        outcomes.append(c2.old_value)

    env.process(caser())
    env.run()
    assert outcomes == [0, 7]
    assert word.value == 7  # second CAS failed, word unchanged


def test_cas_wrong_node_rejected():
    env, cost, fabric, r0, r1 = make_fabric()
    cm, qp = connect(env, fabric, cost)
    word = AtomicWord("ingress", 0)

    def caser():
        wr = WorkRequest(opcode=Opcode.CAS, compare=0, swap=1, signaled=False,
                         word=word)
        yield from r0.execute(qp, wr)

    env.process(caser())
    with pytest.raises(ValueError):
        env.run()


# ---------------------------------------------------------------------------
# Connection manager / shadow QPs
# ---------------------------------------------------------------------------

def test_connection_setup_takes_rc_time():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    got = []

    def setup():
        qp = yield from cm.get_connection("worker1", "t")
        got.append((env.now, qp))

    env.process(setup())
    env.run()
    assert got[0][0] >= cost.rc_setup_us


def test_warm_up_establishes_in_parallel():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)

    def setup():
        yield from cm.warm_up("worker1", "t")

    env.process(setup())
    env.run()
    # 4 handshakes in parallel: one rc_setup, not four
    assert env.now == pytest.approx(cost.rc_setup_us)
    assert cm.pooled_count() == 4


def test_pooled_connection_reused_without_setup():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    times = []

    def setup():
        yield from cm.warm_up("worker1", "t", 2)
        t0 = env.now
        yield from cm.get_connection("worker1", "t")
        times.append(env.now - t0)

    env.process(setup())
    env.run()
    assert times[0] < 10  # activation only, no 20 ms handshake


def test_shadow_qp_activation_and_demotion():
    env, cost, fabric, r0, r1 = make_fabric()
    cm = ConnectionManager(env, fabric, "worker0", cost)
    state = {}

    def setup():
        yield from cm.warm_up("worker1", "t", 2)
        qp = yield from cm.get_connection("worker1", "t")
        state["qp"] = qp

    env.process(setup())
    env.run()
    qp = state["qp"]
    assert qp.state == QPState.ACTIVE
    assert r0.active_qps == 1
    demoted = cm.deactivate_idle()
    assert demoted == 1
    assert qp.state == QPState.INACTIVE
    assert r0.active_qps == 0


def test_qp_thrash_penalty_applied():
    env, cost, fabric, r0, r1 = make_fabric()
    r0.active_qps = cost.max_active_qps + 1
    assert r0._pipe_time(0) == cost.rnic_op_us * cost.qp_thrash_penalty
    r0.active_qps = 1
    assert r0._pipe_time(0) == cost.rnic_op_us


def test_post_to_foreign_rnic_rejected():
    env, cost, fabric, r0, r1 = make_fabric()
    cm, qp = connect(env, fabric, cost)
    with pytest.raises(ValueError):
        r1.post_send(qp, WorkRequest(opcode=Opcode.SEND, length=1))


def test_rc_same_qp_messages_arrive_in_order():
    """RC transport: SENDs posted on one QP are delivered in order."""
    env, cost, fabric, r0, r1 = make_fabric()
    p0, p1 = make_pools(env, r0, r1, count=32)
    cm, qp = connect(env, fabric, cost)
    for _ in range(8):
        r1.post_recv("t", p1.get("dne1"), "dne1")

    def sender():
        for i in range(8):
            src = p0.get("dne0")
            src.write("dne0", f"msg{i}", 64)
            r0.post_send(qp, WorkRequest(opcode=Opcode.SEND, buffer=src,
                                         length=64, message=Message(rid=i),
                                         signaled=False))
        yield env.timeout(0)

    env.process(sender())
    env.run()
    seqs = [c.message.rid for c in r1.cq.items if c.is_recv]
    assert seqs == sorted(seqs) == list(range(8))


def test_mtt_thrash_slows_operations():
    """Registering more translations than the MTT cache doubles op cost."""
    times = {}
    for label, cache in (("fits", 10_000), ("thrashes", 1)):
        env, cost, fabric, r0, r1 = make_fabric()
        r0.mrt.mtt_cache_entries = cache
        r1.mrt.mtt_cache_entries = cache
        p0, p1 = make_pools(env, r0, r1)
        # a second large registration overflows the tiny MTT cache
        extra0 = MemoryPool(env, "t", 4096, 2048, name="big0")
        extra1 = MemoryPool(env, "t", 4096, 2048, name="big1")
        r0.register_pool(extra0)
        r1.register_pool(extra1)
        cm, qp = connect(env, fabric, cost)
        r1.post_recv("t", p1.get("dne1"), "dne1")
        src = p0.get("dne0")
        src.write("dne0", "x", 64)
        done = []

        def run():
            t0 = env.now
            yield from r0.execute(qp, WorkRequest(
                opcode=Opcode.SEND, buffer=src, length=64, signaled=False))
            done.append(env.now - t0)

        env.process(run())
        env.run()
        times[label] = done[0]
    assert times["thrashes"] > times["fits"]
