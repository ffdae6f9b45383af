"""DMA engine models.

Two engines matter for Palladium's on-path vs off-path choice (§2.1,
Fig. 3, Fig. 11):

* The **SoC DMA** on the Bluefield's ARM complex: low latency for a
  single small transfer (2.6 us for a 64 B read, per [90]) but with a
  weak engine that saturates under concurrent traffic — the on-path
  mode's downfall.
* The **RNIC DMA**, which "runs at line rate" (§2.1): its cost is
  already folded into the per-endpoint `endhost_per_byte_us` of the
  RDMA path, so off-path transfers need no extra serialization point.
"""

from __future__ import annotations

from ..config import CostModel
from ..sim import Environment, Resource

__all__ = ["SocDmaEngine"]


class SocDmaEngine:
    """The DPU SoC's DMA engine, modeled as a single rate-limited server.

    All on-path transfers between host memory and DPU-local buffers
    serialize through this engine; its queue is what collapses the
    on-path mode at high concurrency (Fig. 11 (2)).
    """

    def __init__(self, env: Environment, cost: CostModel, name: str = "soc-dma"):
        self.env = env
        self.cost = cost
        self.name = name
        self._engine = Resource(env, capacity=1, name=name)
        self.transfers = 0
        self.bytes_moved = 0

    def transfer(self, nbytes: int):
        """Generator: move ``nbytes`` between host and DPU memory."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        service = self.cost.soc_dma_time(nbytes)
        req = self._engine.request()
        yield req
        try:
            yield self.env.timeout(service)
            self.transfers += 1
            self.bytes_moved += nbytes
        finally:
            self._engine.release(req)
