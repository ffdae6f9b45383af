"""Physical topology: links, switches, nodes, and the testbed cluster.

The testbed (§4) is four nodes: two DPU-equipped workers, one ingress
node (two ConnectX-6 RNICs: one facing the RDMA fabric, one acting as an
Ethernet NIC toward clients) and one client node.  Workers and the
ingress RNIC hang off a 200 Gbps RDMA switch; the client and the
ingress Ethernet NIC share a separate 200 Gbps Ethernet switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import ClusterSpec, CostModel, NodeSpec
from ..sim import Environment, Event

from .cpu import CoreKind, CorePool
from .dma import SocDmaEngine

__all__ = ["Link", "Node", "Cluster", "build_cluster"]


class Link:
    """A half-duplex-per-direction point-to-point link.

    A frame serializes at the link rate behind the frames already
    queued in its direction, then takes the fixed per-hop latency.
    The serializer is a busy-until stage: a capacity-1 FIFO whose hold
    time is known when a frame claims it is fully described by the
    time it next falls idle, so a frame's arrival time is known the
    moment it reaches the link (:meth:`claim`), and :meth:`transmit`
    waits for it with one timer.
    """

    def __init__(
        self,
        env: Environment,
        bytes_per_us: float,
        base_latency_us: float,
        name: str = "link",
    ):
        if bytes_per_us <= 0:
            raise ValueError("link rate must be positive")
        self.env = env
        self.bytes_per_us = bytes_per_us
        self.base_latency_us = base_latency_us
        self.name = name
        #: when the serializer finishes the last frame claimed so far
        self._free_at = env.now
        self.frames = 0
        self.bytes_sent = 0
        #: fault state: a downed link stalls frames until recovery (the
        #: flap model); ``degrade_factor`` > 1 stretches serialization
        #: (bandwidth degradation).  Both default to the no-fault fast
        #: path — a single attribute check per frame.
        self.up = True
        self.degrade_factor = 1.0
        self.flaps = 0
        self.downtime_us = 0.0
        self._down_since = 0.0
        self._resume_event = None

    # -- fault injection -------------------------------------------------------
    def fail(self) -> None:
        """Take the link down; in-flight frames finish, new ones stall."""
        if self.up:
            self.up = False
            self.flaps += 1
            self._down_since = self.env.now

    def recover(self) -> None:
        """Bring the link back up and release stalled frames."""
        if not self.up:
            self.up = True
            self.downtime_us += self.env.now - self._down_since
            event, self._resume_event = self._resume_event, None
            if event is not None and not event.triggered:
                event.succeed()

    def degrade(self, factor: float) -> None:
        """Stretch serialization time by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        self.degrade_factor = factor

    def restore(self) -> None:
        """Clear any bandwidth degradation."""
        self.degrade_factor = 1.0

    def recovered(self) -> Event:
        """The event the next :meth:`recover` fires (link is down)."""
        if self._resume_event is None or self._resume_event.triggered:
            self._resume_event = self.env.event()
        return self._resume_event

    # -- transfer ----------------------------------------------------------------
    def claim(self, nbytes: int) -> float:
        """Queue one frame on the serializer (the link must be up);
        returns the absolute time it arrives at the far end."""
        now = self.env._now
        start = self._free_at if self._free_at > now else now
        end = start + nbytes * self.degrade_factor / self.bytes_per_us
        self._free_at = end
        return end + self.base_latency_us

    def delivered(self, nbytes: int) -> None:
        """Count a claimed frame once it has arrived."""
        self.frames += 1
        self.bytes_sent += nbytes

    def transmit(self, nbytes: int):
        """Generator: move one frame of ``nbytes`` across the link."""
        while not self.up:
            yield self.recovered()
        yield self.env.timeout_at(self.claim(nbytes))
        self.delivered(nbytes)


class Node:
    """A server node: host cores, optional DPU cores + SoC DMA."""

    def __init__(self, env: Environment, spec: NodeSpec, cost: CostModel):
        self.env = env
        self.spec = spec
        self.cost = cost
        self.name = spec.name
        self.cpu = CorePool(env, spec.cpu_cores, CoreKind.X86, 1.0, name=f"{spec.name}-cpu")
        self.dpu: Optional[CorePool] = None
        self.soc_dma: Optional[SocDmaEngine] = None
        if spec.has_dpu:
            self.dpu = CorePool(
                env, spec.dpu_cores, CoreKind.ARM, cost.dpu_cost_factor,
                name=f"{spec.name}-dpu",
            )
            self.soc_dma = SocDmaEngine(env, cost, name=f"{spec.name}-soc-dma")


class Cluster:
    """The assembled testbed: nodes plus per-direction fabric links."""

    def __init__(self, env: Environment, spec: ClusterSpec):
        self.env = env
        self.spec = spec
        self.cost = spec.cost
        self.workers: List[Node] = [
            Node(env, spec.worker_spec(i), spec.cost) for i in range(spec.workers)
        ]
        self.ingress_node = Node(env, spec.ingress_spec(), spec.cost)
        self.client_node = Node(env, spec.client_spec(), spec.cost)
        self.nodes: Dict[str, Node] = {n.name: n for n in self.workers}
        self.nodes[self.ingress_node.name] = self.ingress_node
        self.nodes[self.client_node.name] = self.client_node

        cost = spec.cost
        #: directed RDMA-fabric links between every pair of fabric
        #: endpoints (workers + ingress RNIC), through the 200 G switch.
        self._fabric: Dict[tuple, Link] = {}
        fabric_members = [n.name for n in self.workers] + [self.ingress_node.name]
        for src in fabric_members:
            for dst in fabric_members:
                if src != dst:
                    self._fabric[(src, dst)] = Link(
                        env,
                        cost.fabric_bytes_per_us,
                        cost.rdma_base_latency_us,
                        name=f"fabric:{src}->{dst}",
                    )
        #: Ethernet links between client node and ingress node.
        self.ether_up = Link(
            env, cost.ether_bytes_per_us, cost.ether_base_latency_us, name="ether-up"
        )
        self.ether_down = Link(
            env, cost.ether_bytes_per_us, cost.ether_base_latency_us, name="ether-down"
        )

    def fabric_link(self, src: str, dst: str) -> Link:
        """The directed RDMA link from node ``src`` to node ``dst``."""
        try:
            return self._fabric[(src, dst)]
        except KeyError:
            raise KeyError(f"no fabric path {src} -> {dst}") from None

    def node(self, name: str) -> Node:
        return self.nodes[name]


def build_cluster(
    env: Environment,
    cost: Optional[CostModel] = None,
    workers: int = 2,
) -> Cluster:
    """Build the paper's testbed with optional cost-model override."""
    spec = ClusterSpec(workers=workers, cost=cost or CostModel())
    return Cluster(env, spec)
