"""Software transport stacks: kernel TCP/IP vs DPDK F-stack.

Fig. 13/14 turn entirely on the CPU economics of protocol processing:

* The **kernel stack** is interrupt-driven: every message pays protocol
  cost plus IRQ/softirq overhead, scheduled on the shared core pool.
  Under overload it exhibits receive-livelock behaviour — interrupt
  work crowds out useful work (Mogul & Ramakrishnan), which we model as
  an extra penalty that grows with the stack's queue backlog.
* **F-stack** runs inside a busy-polling loop on a pinned core: cheap
  per-message cost, no interrupts, but the core is burned even when
  idle — which is why Palladium's ingress autoscaler exists.

Both expose the same ``rx``/``tx`` generator interface; callers weave
them into request pipelines.
"""

from __future__ import annotations

from typing import Optional, Union

from ..config import CostModel
from ..hw import CorePool, PinnedCore
from ..sim import Environment

__all__ = ["KernelTcpStack", "FStack", "StackStats"]


class StackStats:
    """Message counters shared by both stack models."""

    def __init__(self):
        self.rx_messages = 0
        self.tx_messages = 0
        self.handshakes = 0


class KernelTcpStack:
    """Interrupt-driven kernel TCP/IP processing on shared cores."""

    def __init__(self, env: Environment, cpu: CorePool, cost: CostModel, name: str = "ktcp"):
        self.env = env
        self.cpu = cpu
        self.cost = cost
        self.name = name
        self.stats = StackStats()
        #: messages currently inside the stack (backlog proxy)
        self.in_flight = 0
        #: the softirq path: all receive interrupts funnel through one
        #: core's bottom-half processing — the receive-livelock choke
        #: point (Mogul & Ramakrishnan).
        self._softirq = CorePool(env, 1, cpu.kind, cpu.factor,
                                 name=f"{name}-softirq")

    def _livelock_penalty(self) -> float:
        """IRQ overhead inflation as backlog builds (receive livelock).

        Mogul & Ramakrishnan: once interrupt arrivals outpace service,
        IRQ work crowds out useful work and goodput collapses.
        """
        if self.in_flight <= 4:
            return 1.0
        return min(30.0, 1.0 + 0.2 * (self.in_flight - 4))

    def rx(self, nbytes: int):
        """Generator: receive-path processing of one message.

        IRQ/softirq work serializes on one core; protocol and copy work
        is scheduled on the stack's core pool.
        """
        self.in_flight += 1
        try:
            irq = self.cost.kernel_irq_us * self._livelock_penalty()
            work = self.cost.kernel_tcp_us + nbytes * 0.00008
            yield self._softirq.run(("protocol", irq))
            yield self.cpu.run(("protocol", work))
            self.stats.rx_messages += 1
        finally:
            self.in_flight -= 1

    def tx(self, nbytes: int):
        """Generator: transmit-path processing of one message."""
        work = self.cost.kernel_tcp_us + nbytes * 0.00008
        yield self.cpu.run(("protocol", work))
        self.stats.tx_messages += 1

    def handshake(self):
        """Generator: TCP three-way-handshake processing."""
        yield self.cpu.run(("protocol", self.cost.tcp_handshake_us))
        self.stats.handshakes += 1


class FStack:
    """DPDK-based userspace TCP/IP (F-stack) on a pinned polling core."""

    def __init__(
        self,
        env: Environment,
        core: Union[PinnedCore, CorePool],
        cost: CostModel,
        name: str = "fstack",
    ):
        self.env = env
        self.core = core
        self.cost = cost
        self.name = name
        self.stats = StackStats()

    def rx(self, nbytes: int):
        """Generator: poll-mode receive processing of one message."""
        work = self.cost.fstack_us + nbytes * 0.00004
        yield self.core.run(("protocol", work))
        self.stats.rx_messages += 1

    def tx(self, nbytes: int):
        """Generator: poll-mode transmit processing of one message."""
        work = self.cost.fstack_us + nbytes * 0.00004
        yield self.core.run(("protocol", work))
        self.stats.tx_messages += 1

    def handshake(self):
        """Generator: handshake processing (cheaper, no syscalls)."""
        work = self.cost.tcp_handshake_us * 0.3
        yield self.core.run(("protocol", work))
        self.stats.handshakes += 1
