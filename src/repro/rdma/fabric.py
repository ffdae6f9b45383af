"""The RDMA fabric: RNIC registry over the cluster's switch links."""

from __future__ import annotations

from typing import Dict

from ..config import CostModel
from ..hw import Cluster, Link
from ..sim import Environment

from .controlplane import RdmaControlPlane
from .rnic import Rnic

__all__ = ["RdmaFabric"]


class RdmaFabric:
    """Holds one :class:`Rnic` per fabric endpoint of a cluster."""

    def __init__(self, env: Environment, cluster: Cluster, cost: CostModel):
        self.env = env
        self.cluster = cluster
        self.cost = cost
        self._rnics: Dict[str, Rnic] = {}
        self._control_planes: Dict[str, RdmaControlPlane] = {}

    def install_rnic(self, node: str) -> Rnic:
        """Attach an RNIC to ``node`` (idempotent)."""
        if node not in self._rnics:
            if node not in self.cluster.nodes:
                raise KeyError(f"unknown node {node!r}")
            self._rnics[node] = Rnic(self.env, self, node, self.cost)
        return self._rnics[node]

    def control_plane(self, node: str) -> RdmaControlPlane:
        """The node's :class:`RdmaControlPlane` (created on first use).

        One instance per endpoint: every connection manager and
        provisioning path on a node shares its ops/sec ceiling and
        setup ledgers.
        """
        cp = self._control_planes.get(node)
        if cp is None:
            cp = RdmaControlPlane(self.env, self, node, self.cost)
            self._control_planes[node] = cp
        return cp

    def rnic(self, node: str) -> Rnic:
        try:
            return self._rnics[node]
        except KeyError:
            raise KeyError(f"node {node!r} has no RNIC installed") from None

    def link(self, src: str, dst: str) -> Link:
        return self.cluster.fabric_link(src, dst)

    @property
    def nodes(self):
        return list(self._rnics)
