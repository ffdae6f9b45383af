"""Hardware models: cores, DMA engines, NICs, links, nodes, cluster."""

from .cpu import CoreKind, CorePool, PinnedCore, work_us
from .dma import SocDmaEngine
from .nic import rss_queue
from .topology import Cluster, Link, Node, build_cluster

__all__ = [
    "CoreKind",
    "CorePool",
    "Cluster",
    "Link",
    "Node",
    "PinnedCore",
    "SocDmaEngine",
    "build_cluster",
    "rss_queue",
    "work_us",
]
