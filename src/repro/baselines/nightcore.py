"""NightCore baseline data plane (Jia & Witchel, ASPLOS'21).

NightCore accelerates intra-node function interaction with low-latency
shared-memory message queues, but "lacks support for inter-function
communication across nodes within a function chain" (§4.3) — the paper
therefore runs all of its functions on a single node, fronted by
NightCore's built-in kernel-based gateway.

In this reproduction NightCore is a platform configuration, not an
engine: no inter-node engine is installed (deploying across nodes
raises), the intra-node IPC uses NightCore's message-queue cost, and
its :data:`~repro.baselines.DATA_PLANES` row wires its kernel gateway
plus a kernel worker-side adapter.
"""

from __future__ import annotations

from ..config import CostModel

__all__ = ["NIGHTCORE_GATEWAY_US", "NIGHTCORE_IPC_US", "nightcore_engine_builder"]

#: NightCore's shared-memory message queue + its engine's dispatch cost
#: per descriptor: cheap, but above raw SK_MSG redirection because each
#: message passes through the NightCore runtime's dispatcher thread.
NIGHTCORE_IPC_US = 1.8

#: extra per-request cost of NightCore's built-in kernel gateway beyond
#: plain kernel NGINX (its gateway threads + internal dispatch queues).
#: Calibrated from the throughput Table 2 implies (NightCore saturates
#: around 2-4 K RPS: 20 clients / 10.77 ms ~ 1.9 K).
NIGHTCORE_GATEWAY_US = 100.0


def nightcore_engine_builder(env, node, fabric, cost: CostModel):
    """NightCore installs no inter-node engine."""
    return None

