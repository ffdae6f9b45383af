"""Fig. 9 — Viable DPU <-> host communication channels (§3.5.4).

Multiple host functions issue back-to-back 16-byte buffer-descriptor
sends to a single-core DNE on the DPU and await replies.  Three channel
implementations are compared:

* kernel **TCP** — highest latency (kernel + protocol overhead);
* **Comch-P** — producer/consumer ring with busy polling: >8x lower
  latency than TCP but one DPU core per function; overloads beyond 6
  functions (the DPU's spare-core budget);
* **Comch-E** — event-driven epoll: 2.7-3.8x better than TCP, stable
  as function density grows.  Palladium's choice.
"""

from __future__ import annotations

from typing import Optional, Type

from ..config import CostModel
from ..dne import ComchE, ComchP, DescriptorChannel, TcpChannel
from ..hw import build_cluster
from ..memory import Buffer, BufferDescriptor
from ..sim import Environment, LatencyStats

from .parallel import Plan, sweep
from .runner import ExperimentResult

__all__ = ["run_fig09", "CHANNELS", "run_channel"]

CHANNELS = {
    "tcp": TcpChannel,
    "comch-p": ComchP,
    "comch-e": ComchE,
}


def run_channel(
    channel_cls: Type[DescriptorChannel],
    functions: int,
    duration_us: float = 50_000.0,
    cost: Optional[CostModel] = None,
):
    """One Fig. 9 cell: N functions ping one single-core DNE echo loop.

    Returns ``(mean_rtt_us, total_rps)``.
    """
    cost = cost or CostModel()
    env = Environment()
    cluster = build_cluster(env, cost)
    node = cluster.node("worker0")
    channel = channel_cls(env, cost)
    dne_core = node.dpu.allocate_pinned("dne-core")
    latency = LatencyStats()
    completed = [0]

    # single-core DNE echo loop: ingest each descriptor, send it back
    def dne_loop():
        while True:
            fn_id, descriptor = yield channel.server_inbox.get()
            yield dne_core.run(
                ("descriptor", channel.ingest_cost_us() * 2))
            channel.dne_send(fn_id, descriptor)

    def function(i: int):
        fn_id = f"fn{i}"
        endpoint = channel.attach(fn_id)
        # a placeholder 16-byte descriptor (no pool needed here)
        buffer = Buffer(64)
        buffer.owner = f"fn:{fn_id}"
        descriptor = BufferDescriptor(buffer=buffer, length=16)
        while True:
            t0 = env.now
            yield from channel.function_send(node.cpu, fn_id, descriptor)
            yield endpoint.recv()
            yield node.cpu.run(("descriptor", channel.fn_cpu_us))
            latency.record(env.now - t0)
            completed[0] += 1

    env.process(dne_loop(), name="dne")
    for i in range(functions):
        env.process(function(i), name=f"fn{i}")
    env.run(until=duration_us)
    rps = completed[0] / (duration_us / 1e6)
    return latency.mean(), rps


@sweep
def run_fig09(
    function_counts=(1, 2, 4, 6, 8, 10),
    duration_us: float = 50_000.0,
    cost: Optional[CostModel] = None,
) -> Plan:
    """Reproduce Fig. 9: RTT and descriptor RPS vs function count."""
    cost = cost or CostModel()
    grid = [(name, n) for name in CHANNELS for n in function_counts]
    points = yield [(run_channel, (CHANNELS[name], n, duration_us, cost), {})
                    for name, n in grid]
    result = ExperimentResult(
        "Fig 9 - DPU/host descriptor channels",
        columns=["channel", "functions", "mean_rtt_us", "rps"],
    )
    for (name, n), (rtt, rps) in zip(grid, points):
        result.add_row(name, n, round(rtt, 2), round(rps))
    result.note(
        "paper: Comch-P >8x lower RTT than TCP but overloads beyond 6 "
        "functions; Comch-E 2.7-3.8x better than TCP and stable"
    )
    return result
