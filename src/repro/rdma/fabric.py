"""The RDMA fabric: RNIC registry over the cluster's switch links."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

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
        #: verbs state-machine edges every QP took, by (node, from, to)
        self.qp_edges: Dict[Tuple[str, str, str], int] = Counter()
        if env.telemetry is not None:
            collect, rnics = env.telemetry.metrics.collect, self._rnics
            collect("rnic_ops_total", "Work requests completed by an RNIC.",
                    ("node", "opcode", "ok"), lambda: {
                        (n,) + k: c for n, r in rnics.items()
                        for k, c in r.ops.items()})
            collect("srq_rnr_stalls_total", "Senders that found an empty shared "
                    "RQ (RNR condition).", ("node", "tenant"), lambda: {
                        (n, t): q.rnr_stalls for n, r in rnics.items()
                        for t, q in r.srqs.items()})
            collect("mr_registered_bytes", "Bytes registered as memory regions.",
                    ("node", "tenant"), lambda: {
                        (n, t): b for n, cp in self._control_planes.items()
                        for t, b in cp.mr_bytes.items()})
            collect("qp_transitions_total", "Verbs state-machine edges taken.",
                    ("node", "from", "to"), lambda: self.qp_edges)

    def count_edges(self, qp, start: int = 0) -> None:
        """Add ``qp``'s verbs edges from index ``start`` on to the ledger."""
        for old, new in qp.transitions[start:]:
            self.qp_edges[qp.local_node, old, new] += 1

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
