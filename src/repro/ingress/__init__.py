"""Cluster ingress gateways: Palladium's RDMA-converting gateway and baselines."""

from .adapter import TcpWorkerAdapter
from .balancer import IngressLoadBalancer
from .gateway import ClientConnection, GatewayStats, GatewayWorker, WorkerPool
from .palladium import PalladiumIngress
from .proxy import FIngress, KIngress, ProxyIngress
from .tier import (
    ConsistentHashRing,
    FlowTable,
    GatewayShard,
    GatewayTier,
)

__all__ = [
    "ClientConnection",
    "ConsistentHashRing",
    "FIngress",
    "FlowTable",
    "GatewayShard",
    "GatewayStats",
    "GatewayTier",
    "GatewayWorker",
    "IngressLoadBalancer",
    "KIngress",
    "PalladiumIngress",
    "ProxyIngress",
    "TcpWorkerAdapter",
    "WorkerPool",
]
