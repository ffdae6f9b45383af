"""Fig. 12 — Selection of RDMA primitives for the zero-copy data plane.

Two DNEs on different worker nodes act as an echo client/server pair,
one DPU core each (§4.1.2).  Four variants:

* ``two-sided``   — Palladium's choice: SEND/RECV with posted buffers.
* ``owrc-best``   — one-sided write + receiver-side copy, artificially
  cache-hot copies (the paper's OWRC-Best).
* ``owrc-worst``  — same with forced main-memory copies / TLB flush.
* ``owdl``        — one-sided write coordinated by a distributed lock.

Paper anchors (4 KB): 11.6 us / 15 us / 16.7 us / 26.1 us mean RTT;
two-sided RPS up to 1.3x / 1.4x / >2.1x the alternatives.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..config import CostModel
from ..dataplane import Message
from ..hw import build_cluster
from ..memory import MemoryPool
from ..rdma import (
    ConnectionManager,
    DistributedLock,
    Opcode,
    RdmaFabric,
    WorkRequest,
)
from ..sim import Environment, LatencyStats

from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = ["run_fig12", "VARIANTS"]

VARIANTS = ("two-sided", "owrc-best", "owrc-worst", "owdl")

_rids = itertools.count(1)


class _EchoBench:
    """Shared scaffold: cluster, RNICs, pools, pinned DNE cores."""

    def __init__(self, cost: CostModel, pool_buffers: int = 256,
                 buffer_bytes: int = 8192):
        self.env = Environment()
        self.cost = cost
        self.cluster = build_cluster(self.env, cost)
        self.fabric = RdmaFabric(self.env, self.cluster, cost)
        self.rnic0 = self.fabric.install_rnic("worker0")
        self.rnic1 = self.fabric.install_rnic("worker1")
        self.p0 = MemoryPool(self.env, "bench", pool_buffers, buffer_bytes, name="p0")
        self.p1 = MemoryPool(self.env, "bench", pool_buffers, buffer_bytes, name="p1")
        self.rnic0.register_pool(self.p0)
        self.rnic1.register_pool(self.p1)
        self.c0 = self.cluster.node("worker0").dpu.allocate_pinned("dne0")
        self.c1 = self.cluster.node("worker1").dpu.allocate_pinned("dne1")
        self.cm0 = ConnectionManager(self.env, self.fabric, "worker0", cost)
        self.cm1 = ConnectionManager(self.env, self.fabric, "worker1", cost)
        self.latency = LatencyStats()
        self.completed = 0
        self.qp = None
        self.qp_back = None

    def setup(self):
        """Generator: warm one RC connection pair."""
        yield from self.cm0.warm_up("worker1", "bench", 1)
        self.qp = yield from self.cm0.get_connection("worker1", "bench")
        self.qp_back = self.qp.peer
        yield from self.cm1._activate(self.qp_back)


def _run_two_sided(cost: CostModel, size: int, concurrency: int,
                   duration_us: float) -> _EchoBench:
    bench = _EchoBench(cost)
    env = bench.env
    pending: Dict[int, object] = {}

    def setup_and_drive():
        yield from bench.setup()
        # Post initial receive buffers both ways.
        for _ in range(concurrency * 2):
            bench.rnic1.post_recv("bench", bench.p1.get("dne1"), "dne1")
            bench.rnic0.post_recv("bench", bench.p0.get("dne0"), "dne0")
        env.process(_replenisher(), name="replenish")
        bench.rnic1.cq.set_sink(_server_cqe)
        bench.rnic0.cq.set_sink(_client_cqe)
        for i in range(concurrency):
            env.process(_driver(i), name=f"driver{i}")

    def _replenisher():
        while True:
            yield env.timeout(20.0)
            for rnic, pool, agent in ((bench.rnic1, bench.p1, "dne1"),
                                      (bench.rnic0, bench.p0, "dne0")):
                srq = rnic.srq("bench")
                n, srq.consumed_since_replenish = srq.consumed_since_replenish, 0
                for _ in range(n):
                    if pool.free_count == 0:
                        break
                    rnic.post_recv("bench", pool.get(agent), agent)

    def _server_cqe(completion):
        # The echo server is rnic1's CQ sink: a request claims the
        # pinned core at once and is echoed when that core run ends.
        if completion.is_recv:
            # RX + TX stage of the echo on the wimpy core.
            step = bench.c1.run(
                ("descriptor", cost.dne_rx_proc_us + cost.dne_tx_proc_us))
            step.callbacks.append(lambda _: _echo(completion))
        elif completion.opcode == Opcode.SEND:
            completion.buffer.pool.put(completion.buffer, "dne1")

    def _echo(completion):
        buffer = completion.buffer
        buffer.transfer("rnic:worker1", "dne1")
        message = completion.message
        message.transfer("rnic:worker1", "dne1")
        wr = WorkRequest(opcode=Opcode.SEND, buffer=buffer,
                         length=completion.length, message=message)
        message.transfer("dne1", "rnic:worker1")
        bench.rnic1.post_send(bench.qp_back, wr)

    def _client_cqe(completion):
        # rnic0's CQ sink: a reply claims the client's core and wakes
        # its driver when that core run ends.
        if completion.is_recv:
            step = bench.c0.run(("descriptor", cost.dne_rx_proc_us))
            step.callbacks.append(lambda _: _reply(completion))
        elif completion.opcode == Opcode.SEND:
            completion.buffer.pool.put(completion.buffer, "dne0")

    def _reply(completion):
        event = pending.pop(completion.message.rid, None)
        buffer = completion.buffer
        buffer.transfer("rnic:worker0", "dne0")
        completion.message.transfer("rnic:worker0", "dne0")
        completion.message.retire("dne0")
        buffer.pool.put(buffer, "dne0")
        if event is not None:
            event.succeed()

    def _driver(i: int):
        while True:
            t0 = env.now
            buffer = yield from bench.p0.get_wait("dne0")
            buffer.write("dne0", "x" * 4, size)
            yield bench.c0.run(("descriptor", cost.dne_tx_proc_us))
            rid = next(_rids)
            event = env.event()
            pending[rid] = event
            wr = WorkRequest(opcode=Opcode.SEND, buffer=buffer, length=size,
                             message=Message(rid=rid))
            bench.rnic0.post_send(bench.qp, wr)
            yield event
            bench.latency.record(env.now - t0)
            bench.completed += 1

    env.process(setup_and_drive(), name="setup")
    env.run(until=duration_us)
    return bench


def _run_onesided(cost: CostModel, size: int, concurrency: int,
                  duration_us: float, variant: str) -> _EchoBench:
    """OWRC (best/worst) and OWDL echo benches."""
    bench = _EchoBench(cost)
    env = bench.env
    use_lock = variant == "owdl"
    cached = variant != "owrc-worst"
    # Dedicated RDMA-only pools for OWRC (Fig. 2 (2)); for OWDL the
    # writes land straight in the target pool, guarded by the lock.
    rp0 = MemoryPool(env, "bench", concurrency * 2, 8192, name="rdma-p0")
    rp1 = MemoryPool(env, "bench", concurrency * 2, 8192, name="rdma-p1")
    bench.rnic0.register_pool(rp0)
    bench.rnic1.register_pool(rp1)

    def setup_and_drive():
        yield from bench.setup()
        for i in range(concurrency):
            env.process(_driver(i), name=f"driver{i}")

    def _driver(i: int):
        # Per-driver slots and (for OWDL) per-slot distributed locks.
        req_slot = rp1.get(f"slot{i}")
        resp_slot = rp0.get(f"slot{i}")
        req_lock = DistributedLock(env, bench.fabric, "worker1", cost) if use_lock else None
        resp_lock = DistributedLock(env, bench.fabric, "worker0", cost) if use_lock else None
        holder = i + 1
        while True:
            t0 = env.now
            # --- request: client -> server -------------------------------
            buffer = yield from bench.p0.get_wait("dne0")
            buffer.write("dne0", "x" * 4, size)
            yield bench.c0.run(("descriptor", cost.dne_tx_proc_us))
            if use_lock:
                yield from req_lock.acquire(bench.qp, holder)
            wr = WorkRequest(opcode=Opcode.WRITE, buffer=buffer, length=size,
                             remote_buffer=req_slot, signaled=False,
                             expected_owner=f"slot{i}")
            yield from bench.rnic0.execute(bench.qp, wr)
            bench.p0.put(buffer, "dne0")
            if use_lock:
                env.process(resp_release(req_lock, bench.qp, holder), name="rel")
            # receiver-side polling notices the write one interval later
            yield env.timeout(cost.onesided_poll_interval_us)
            # --- server processing ------------------------------------------
            # One-sided receivers skip CQE/RBR handling: poll-detect (a
            # fraction of the RX stage) plus the TX stage of the echo.
            yield bench.c1.run(("descriptor", 0.3 + cost.dne_tx_proc_us))
            if not use_lock:
                # OWRC: copy out of the dedicated pool into the local pool
                yield bench.c1.run(
                    ("copy", cost.copy_time(size, cached=cached)))
            # --- response: server -> client -----------------------------------
            rbuf = yield from bench.p1.get_wait("dne1")
            rbuf.write("dne1", "y" * 4, size)
            if use_lock:
                yield from resp_lock.acquire(bench.qp_back, holder)
            wr2 = WorkRequest(opcode=Opcode.WRITE, buffer=rbuf, length=size,
                              remote_buffer=resp_slot, signaled=False,
                              expected_owner=f"slot{i}")
            yield from bench.rnic1.execute(bench.qp_back, wr2)
            bench.p1.put(rbuf, "dne1")
            if use_lock:
                env.process(resp_release(resp_lock, bench.qp_back, holder), name="rel")
            yield env.timeout(cost.onesided_poll_interval_us)
            yield bench.c0.run(("descriptor", 0.3))
            if not use_lock:
                yield bench.c0.run(
                    ("copy", cost.copy_time(size, cached=cached)))
            bench.latency.record(env.now - t0)
            bench.completed += 1

    def resp_release(lock, qp, holder):
        yield from lock.release(qp, holder)

    env.process(setup_and_drive(), name="setup")
    env.run(until=duration_us)
    return bench


def run_variant(variant: str, cost: CostModel, size: int, concurrency: int,
                duration_us: float) -> _EchoBench:
    """Run one Fig. 12 variant and return the populated bench."""
    if variant == "two-sided":
        return _run_two_sided(cost, size, concurrency, duration_us)
    if variant in ("owrc-best", "owrc-worst", "owdl"):
        return _run_onesided(cost, size, concurrency, duration_us, variant)
    raise ValueError(f"unknown variant {variant!r}")


def _fig12_cell(variant: str, size: int, concurrency: int,
                duration_us: float, cost: CostModel) -> dict:
    """One (variant, size) cell: latency run + throughput run."""
    warm = 21_000.0  # RC setup happens once at t=0 (20 ms)
    lat_bench = run_variant(variant, cost, size, 1, warm + duration_us)
    thr_bench = run_variant(variant, cost, size, concurrency,
                            warm + duration_us)
    return {
        "mean_rtt_us": lat_bench.latency.mean(),
        "completed": thr_bench.completed,
    }


@sweep
def run_fig12(
    sizes=(64, 1024, 4096),
    concurrency: int = 8,
    duration_us: float = 40_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Reproduce Fig. 12: latency (concurrency=1) and RPS per variant."""
    cost = cost or CostModel()
    grid = [(variant, size) for variant in VARIANTS for size in sizes]
    cells = yield [(_fig12_cell, (variant, size, concurrency, duration_us,
                                  cost), {}) for variant, size in grid]
    result = ExperimentResult(
        "Fig 12 - RDMA primitive selection",
        columns=["variant", "size_bytes", "mean_rtt_us", "rps"],
    )
    for (variant, size), cell in zip(grid, cells):
        rps = cell["completed"] / (duration_us / 1e6)
        result.add_row(variant, size, round(cell["mean_rtt_us"], 2),
                       round(rps))
    result.note(
        "paper anchors @4KB RTT: two-sided 11.6, OWRC-Best 15, "
        "OWRC-Worst 16.7, OWDL 26.1 us"
    )
    return result
