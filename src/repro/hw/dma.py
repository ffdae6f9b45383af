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
from ..sim import Environment, Timeout

__all__ = ["SocDmaEngine"]


class SocDmaEngine:
    """The DPU SoC's DMA engine, modeled as a single rate-limited server.

    All on-path transfers between host memory and DPU-local buffers
    serialize through this engine; its queue is what collapses the
    on-path mode at high concurrency (Fig. 11 (2)).  A transfer's
    service time is known when it is claimed, so the engine is one
    busy-until float, like an RNIC pipe.
    """

    def __init__(self, env: Environment, cost: CostModel, name: str = "soc-dma"):
        self.env = env
        self.cost = cost
        self.name = name
        #: when the engine next falls idle
        self._free = env.now
        self.transfers = 0
        self.bytes_moved = 0

    def transfer(self, nbytes: int) -> Timeout:
        """Queue a move of ``nbytes`` between host and DPU memory;
        ``yield`` the returned timeout, which fires when it is done.
        The counters count each transfer when it is queued."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        now = self.env._now
        start = self._free if self._free > now else now
        self._free = end = start + self.cost.soc_dma_time(nbytes)
        self.transfers += 1
        self.bytes_moved += nbytes
        return self.env.timeout_at(end)
