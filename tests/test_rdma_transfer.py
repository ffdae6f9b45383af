"""The RNIC transfer chain: busy-until stages, the two drivers of one
WR state machine, and its fault paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import build_fuyao
from repro.config import CostModel
from repro.hw import Link, build_cluster
from repro.memory import MemoryPool
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.rdma import (
    AtomicWord,
    ConnectionManager,
    Opcode,
    QPState,
    QpError,
    RDMA_HEADER_BYTES,
    RdmaFabric,
    WorkRequest,
)
from repro.sim import Environment, Process

from .resource_reference import Resource

# Ties are the interesting case for a FIFO: draw from a few shared
# values as well as from the continuum.
_times = st.one_of(st.sampled_from([0.0, 0.3, 0.7, 1.65, 2.0]),
                   st.floats(min_value=0.0, max_value=50.0))
_holds = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 2.0]),
                   st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_times, _holds), min_size=1, max_size=12))
def test_busy_until_stage_ends_where_the_fifo_resource_does(claims):
    """A capacity-1 FIFO with hold times known at claim time: the link
    serializer (unit rate, no latency) against ``Resource`` as the
    reference, bit for bit."""

    def reference():
        env = Environment()
        res = Resource(env, capacity=1)
        ends = {}

        def claimant(i, at, hold):
            yield env.timeout(at)
            yield from res.use(hold)
            ends[i] = env.now

        for i, (at, hold) in enumerate(claims):
            env.process(claimant(i, at, hold))
        env.run()
        return ends

    def busy_until():
        env = Environment()
        link = Link(env, bytes_per_us=1.0, base_latency_us=0.0)
        ends = {}

        def claimant(i, at, hold):
            yield env.timeout(at)
            yield env.timeout_at(link.claim(hold))
            ends[i] = env.now

        for i, (at, hold) in enumerate(claims):
            env.process(claimant(i, at, hold))
        env.run()
        return ends

    assert busy_until() == reference()


# ---------------------------------------------------------------------------
# one state machine, two drivers
# ---------------------------------------------------------------------------

def make_fabric():
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    r0 = fabric.install_rnic("worker0")
    r1 = fabric.install_rnic("worker1")
    p0 = MemoryPool(env, "t", 8, 4096, name="p0")
    p1 = MemoryPool(env, "t", 8, 4096, name="p1")
    r0.register_pool(p0)
    r1.register_pool(p1)
    cm = ConnectionManager(env, fabric, "worker0", cost)
    holder = {}

    def setup():
        yield from cm.warm_up("worker1", "t", 1)
        holder["qp"] = yield from cm.get_connection("worker1", "t")

    env.process(setup())
    env.run()  # the fabric is idle from here on
    return env, cost, fabric, r0, r1, p0, p1, holder["qp"]


def make_wr(opcode, p0, p1, r1, length=512):
    src = p0.get("dne0")
    src.write("dne0", "payload", length)
    if opcode == Opcode.SEND:
        r1.post_recv("t", p1.get("dne1"), "dne1")
        return WorkRequest(opcode=opcode, buffer=src, length=length)
    if opcode == Opcode.CAS:
        return WorkRequest(opcode=opcode, compare=0, swap=7,
                           word=AtomicWord("worker1"))
    target = p1.get("dne1")
    target.write("dne1", "remote", length)
    return WorkRequest(opcode=opcode, buffer=src, length=length,
                       remote_buffer=target)


def test_posted_send_runs_three_events_and_no_process(monkeypatch):
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    wr = make_wr(Opcode.SEND, p0, p1, r1)
    processes = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        processes.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    before = env.events_processed
    transfer = r0.post_send(qp, wr)
    env.run()
    assert processes == []
    # tx pipe done, frame arrives, buffer lands
    assert env.events_processed - before == 3
    assert transfer.completion.ok
    assert [c.is_recv for c in r1.cq.items] == [True]
    assert r0.ops[Opcode.SEND, True] == 1 and qp.pending_wrs == 0


def test_inline_write_waits_on_three_timers():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    wr = make_wr(Opcode.WRITE, p0, p1, r1)

    def caller():
        yield from r0.execute(qp, wr)

    before = env.events_processed
    env.process(caller())
    env.run()
    # process start + tx, arrival, landing + process exit
    assert env.events_processed - before == 5
    assert wr.remote_buffer.payload == "payload"


def _expected_write_time(t0, cost, length):
    tx = cost.rnic_op_us + length * cost.endhost_per_byte_us
    ser = (RDMA_HEADER_BYTES + length) * 1.0 / cost.fabric_bytes_per_us
    return t0 + tx + ser + cost.rdma_base_latency_us + tx


@pytest.mark.parametrize("opcode", [Opcode.SEND, Opcode.WRITE,
                                    Opcode.READ, Opcode.CAS])
def test_execute_and_post_send_complete_at_identical_times(opcode):
    ends = {}
    for driver in ("posted", "inline"):
        env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
        wr = make_wr(opcode, p0, p1, r1)
        t0 = env.now

        def caller():
            completion = yield from r0.execute(qp, wr)
            ends[driver] = (env.now, completion.ok)

        if driver == "inline":
            env.process(caller())
        else:
            done = r0.post_send(qp, wr).done
            done.callbacks.append(
                lambda ev: ends.__setitem__("posted", (env.now, ev.value.ok)))
        env.run()
    assert ends["posted"] == ends["inline"]
    assert ends["posted"][1]
    if opcode == Opcode.WRITE:
        assert ends["posted"][0] == _expected_write_time(t0, cost, 512)


def test_completion_event_exists_only_when_asked_for():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    transfer = r0.post_send(qp, make_wr(Opcode.WRITE, p0, p1, r1))
    assert transfer._done is None
    env.run()
    late = transfer.done  # asked after the WR completed
    assert late.processed and late.value is transfer.completion


# ---------------------------------------------------------------------------
# fault paths
# ---------------------------------------------------------------------------

def _flushed(r0):
    return [c for c in r0.cq.items if c.flushed and not c.ok]


def test_post_on_errored_qp_flushes_a_failed_cqe():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    r0.flush_qp(qp, "injected")
    wr = make_wr(Opcode.SEND, p0, p1, r1)
    transfer = r0.post_send(qp, wr)
    before = env.events_processed
    env.run()
    assert env.events_processed == before  # nothing reached the NIC
    [cqe] = _flushed(r0)
    assert cqe.wr_id == wr.wr_id and cqe.buffer is wr.buffer
    assert cqe.error == "injected" and transfer.completion is cqe
    assert r0.flushed_cqes == 1 and qp.pending_wrs == 0
    assert r0.ops[Opcode.SEND, False] == 1


def test_nic_death_during_an_rnr_stall_flushes():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    src = p0.get("dne0")
    src.write("dne0", "x", 64)
    # No receive buffer posted on worker1: the SEND stalls in RNR.
    transfer = r0.post_send(qp, WorkRequest(opcode=Opcode.SEND, buffer=src,
                                            length=64))
    env.run(until=env.now + 100.0)
    assert transfer.completion is None
    assert r1.srqs["t"].rnr_stalls == 1
    r1.fail()  # the receiver dies: its shared RQ will never refill
    env.run()
    [cqe] = _flushed(r0)
    assert cqe is transfer.completion and cqe.buffer is src
    assert cqe.error == "nic worker1 died"
    assert qp.state == QPState.ERROR and qp.pending_wrs == 0


def test_peer_dead_when_the_frame_arrives_flushes():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    wr = make_wr(Opcode.WRITE, p0, p1, r1)
    transfer = r0.post_send(qp, wr)
    r1.fail()  # after the doorbell, before the frame arrives
    env.run()
    [cqe] = _flushed(r0)
    assert cqe is transfer.completion
    assert cqe.error == "peer nic worker1 died"
    assert qp.state == QPState.ERROR
    assert wr.remote_buffer.payload == "remote"  # the write never landed


def test_inline_transfer_raises_when_the_peer_is_dead_on_arrival():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    wr = make_wr(Opcode.WRITE, p0, p1, r1)
    caught = []

    def caller():
        try:
            yield from r0.execute(qp, wr)
        except QpError as exc:
            caught.append(exc.cause)

    env.process(caller())
    r1.fail()
    env.run()
    assert caught == ["peer nic worker1 died"]
    assert qp.pending_wrs == 0


def test_link_down_on_reaching_the_wire_delays_arrival_to_recovery():
    env, cost, fabric, r0, r1, p0, p1, qp = make_fabric()
    link = fabric.link("worker0", "worker1")
    length = 512
    wr = make_wr(Opcode.WRITE, p0, p1, r1, length)
    link.fail()
    done = r0.post_send(qp, wr).done
    landed = []
    done.callbacks.append(lambda ev: landed.append(env.now))
    recovered_at = env.now + 7_000.0
    env.defer_at(recovered_at, link.recover)
    env.run()
    tx = cost.rnic_op_us + length * cost.endhost_per_byte_us
    ser = (RDMA_HEADER_BYTES + length) * 1.0 / cost.fabric_bytes_per_us
    assert landed == [recovered_at + ser + cost.rdma_base_latency_us + tx]
    assert link.frames == 1 and link.downtime_us == 7_000.0


# ---------------------------------------------------------------------------
# FUYAO's write notifier: the one waiter on a posted WR
# ---------------------------------------------------------------------------

def test_fuyao_notifier_fires_once_its_write_lands(monkeypatch):
    env = Environment()
    plat = ServerlessPlatform(env, engine_builder=build_fuyao)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("server", "t1", work_us=5), "worker1")
    plat.start()
    rnic = plat.fabric.rnic("worker0")
    engine = plat.engines["worker1"]
    landed, notified = [], []
    post, inject = rnic.post_send, engine.inject_event

    def spy_post(qp, wr):
        transfer = post(qp, wr)
        if wr.opcode == Opcode.WRITE:
            transfer.done.callbacks.append(lambda ev: landed.append(env.now))
        return transfer

    def spy_inject(kind, payload):
        if kind == "onesided":
            notified.append(env.now)
        inject(kind, payload)

    monkeypatch.setattr(rnic, "post_send", spy_post)
    monkeypatch.setattr(engine, "inject_event", spy_inject)

    def body():
        yield env.timeout(60_000)
        for i in range(4):
            reply = yield from client.invoke("server", f"m{i}", 256)
            assert reply.payload == f"m{i}"

    env.process(body())
    env.run(until=800_000)
    assert len(landed) == 4
    poll = plat.cost.onesided_poll_interval_us
    assert notified == [t + poll for t in landed]
