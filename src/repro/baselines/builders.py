"""Engine builders and the one table of evaluated data planes (§4.3).

Each builder has the :data:`~repro.platform.cluster.EngineBuilder`
signature and is handed to :class:`~repro.platform.ServerlessPlatform`.
:data:`DATA_PLANES` maps every configuration id the experiments use to
its wiring: engine, cluster ingress and worker-side TCP adapter.  The
six configurations of Fig. 16 / Table 2, plus the overload sweep's
``fuyao``:

=================  ====================  =========================================
config id          data plane            wiring
=================  ====================  =========================================
``palladium-dne``  Palladium (DNE)       ``build_dne`` — DPU engine, Comch-E,
                                         DWRR; Palladium ingress
``palladium-cne``  Palladium (CNE)       ``build_cne`` — host engine, SK_MSG,
                                         DWRR; Palladium ingress
``fuyao-f``        FUYAO-F               ``build_fuyao`` — one-sided RDMA + copy;
                                         F-Ingress, F-stack adapter
``fuyao``          FUYAO (overload)      same as ``fuyao-f``
``fuyao-k``        FUYAO-K               ``build_fuyao``; K-Ingress, kernel adapter
``spright``        SPRIGHT               ``build_spright`` — kernel TCP inter-node;
                                         F-Ingress, F-stack adapter
``nightcore``      NightCore             ``nightcore_engine_builder`` — single
                                         node; its heavier built-in kernel
                                         gateway, kernel adapter
=================  ====================  =========================================

``build_dne_onpath`` is the Fig. 11 ablation (payloads staged through
the SoC DMA engine instead of cross-processor shared memory).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Optional

from ..config import CostModel
from ..dne import (
    ComchE,
    CpuNetworkEngine,
    DpuNetworkEngine,
    DwrrScheduler,
    FcfsScheduler,
    NetworkEngine,
    SkMsgChannel,
)
from ..hw import Node
from ..ingress import TcpWorkerAdapter
from ..platform.cluster import EngineBuilder
from ..rdma import RdmaFabric
from ..sim import Environment

from .fuyao import FuyaoEngine
from .nightcore import NIGHTCORE_GATEWAY_US, NIGHTCORE_IPC_US, nightcore_engine_builder
from .spright import SprightEngine

__all__ = [
    "DATA_PLANES",
    "DataPlane",
    "build_dne",
    "build_dne_fcfs",
    "build_dne_onpath",
    "build_cne",
    "build_spright",
    "build_fuyao",
]


def build_dne(env: Environment, node: Node, fabric: RdmaFabric,
              cost: CostModel) -> NetworkEngine:
    """Palladium (DNE): off-path DPU engine, Comch-E, DWRR."""
    channel = ComchE(env, cost, name=f"comch:{node.name}")
    return DpuNetworkEngine(env, node, fabric, cost, channel,
                            scheduler=DwrrScheduler(), name=f"dne:{node.name}")


def build_dne_fcfs(env: Environment, node: Node, fabric: RdmaFabric,
                   cost: CostModel) -> NetworkEngine:
    """The Fig. 15 baseline: identical DNE with an FCFS scheduler."""
    channel = ComchE(env, cost, name=f"comch:{node.name}")
    return DpuNetworkEngine(env, node, fabric, cost, channel,
                            scheduler=FcfsScheduler(), name=f"dne:{node.name}")


def build_dne_onpath(env: Environment, node: Node, fabric: RdmaFabric,
                     cost: CostModel) -> NetworkEngine:
    """The Fig. 11 ablation: on-path DNE staging data via SoC DMA."""
    channel = ComchE(env, cost, name=f"comch:{node.name}")
    return DpuNetworkEngine(env, node, fabric, cost, channel,
                            scheduler=DwrrScheduler(),
                            mode=NetworkEngine.MODE_ON_PATH,
                            name=f"dne-onpath:{node.name}")


def build_cne(env: Environment, node: Node, fabric: RdmaFabric,
              cost: CostModel) -> NetworkEngine:
    """Palladium (CNE): the engine on a host core, SK_MSG IPC."""
    channel = SkMsgChannel(env, cost, name=f"skmsg-chan:{node.name}")
    return CpuNetworkEngine(env, node, fabric, cost, channel,
                            scheduler=DwrrScheduler(), name=f"cne:{node.name}")


def build_spright(env: Environment, node: Node, fabric: RdmaFabric,
                  cost: CostModel) -> NetworkEngine:
    """SPRIGHT: shared memory intra-node, kernel TCP inter-node."""
    channel = SkMsgChannel(env, cost, name=f"skmsg-chan:{node.name}")
    return SprightEngine(env, node, fabric, cost, channel,
                         name=f"spright:{node.name}")


def build_fuyao(env: Environment, node: Node, fabric: RdmaFabric,
                cost: CostModel) -> NetworkEngine:
    """FUYAO: one-sided RDMA writes with receiver-side copy + polling."""
    channel = SkMsgChannel(env, cost, name=f"skmsg-chan:{node.name}")
    return FuyaoEngine(env, node, fabric, cost, channel,
                       name=f"fuyao:{node.name}")


class DataPlane(NamedTuple):
    """How one evaluated configuration wires the shared components."""

    #: engine builder installed on every worker
    engine: EngineBuilder
    #: cluster ingress: ``"palladium"``, ``"f-ingress"`` or ``"k-ingress"``
    ingress: str
    #: stack of the worker0 TCP adapter a proxy ingress relays to
    stack: Optional[str] = None
    #: intra-node IPC cost override (NightCore's message queues)
    intra_ipc_us: Optional[float] = None
    #: extra per-request ingress cost beyond plain NGINX
    gateway_us: float = 0.0

    def ingress_cost(self, cost: CostModel) -> CostModel:
        """The cost model this configuration's ingress runs on."""
        if not self.gateway_us:
            return cost
        return replace(cost, proxy_overhead_us=cost.proxy_overhead_us
                       + self.gateway_us)


_FSTACK, _KERNEL = TcpWorkerAdapter.FSTACK, TcpWorkerAdapter.KERNEL

#: config id -> wiring (see the module docstring)
DATA_PLANES = {
    "palladium-dne": DataPlane(build_dne, "palladium"),
    "palladium-cne": DataPlane(build_cne, "palladium"),
    "fuyao": DataPlane(build_fuyao, "f-ingress", _FSTACK),
    "fuyao-f": DataPlane(build_fuyao, "f-ingress", _FSTACK),
    "fuyao-k": DataPlane(build_fuyao, "k-ingress", _KERNEL),
    "spright": DataPlane(build_spright, "f-ingress", _FSTACK),
    "nightcore": DataPlane(nightcore_engine_builder, "k-ingress", _KERNEL,
                           NIGHTCORE_IPC_US, NIGHTCORE_GATEWAY_US),
}
