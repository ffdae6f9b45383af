"""Control-plane coordinator (§3.5.5).

A CNI-like controller that listens for function deployment events and
keeps every node's routing state in sync: the intra-node table on each
host and the inter-node table on each DPU (plus the ingress gateway's
route view).  The coordinator is strictly off the data path.
"""

from __future__ import annotations

from typing import Dict, List

from ..dne.routing import InterNodeRoutes

__all__ = ["Coordinator"]


class Coordinator:
    """Synchronizes routing tables across the cluster."""

    def __init__(self):
        #: inter-node route tables to keep in sync (engines + ingress)
        self._subscribers: List[InterNodeRoutes] = []
        #: fn id -> node name (authoritative placement record)
        self.placement: Dict[str, str] = {}
        #: deployment event log (for tests/inspection)
        self.events: List[tuple] = []
        #: nodes currently marked failed (routes withdrawn, placement kept)
        self.failed_nodes: set = set()

    def subscribe(self, routes: InterNodeRoutes) -> None:
        """Register a route table; it immediately receives known routes."""
        self._subscribers.append(routes)
        for fn_id, node in self.placement.items():
            routes.set_route(fn_id, node)

    def function_created(self, fn_id: str, node: str) -> None:
        """Publish a new function's placement cluster-wide."""
        self.placement[fn_id] = node
        self.events.append(("created", fn_id, node))
        for routes in self._subscribers:
            routes.set_route(fn_id, node)

    def function_migrated(self, fn_id: str, node: str) -> None:
        """Atomically repoint a function's routes at its new node.

        The placement record is updated first (it is authoritative —
        recovery re-publication reads it), then every subscribed route
        table is overwritten in one synchronous pass: there is no
        instant at which one engine routes to the old node while
        another routes to the new one.
        """
        old = self.placement.get(fn_id)
        self.placement[fn_id] = node
        self.events.append(("migrated", fn_id, old, node))
        for routes in self._subscribers:
            routes.set_route(fn_id, node)

    def function_terminated(self, fn_id: str) -> None:
        """Withdraw a function's routes cluster-wide."""
        self.placement.pop(fn_id, None)
        self.events.append(("terminated", fn_id))
        for routes in self._subscribers:
            routes.remove_route(fn_id)

    def node_of(self, fn_id: str) -> str:
        try:
            return self.placement[fn_id]
        except KeyError:
            raise KeyError(f"function {fn_id!r} is not deployed") from None

    # -- failure handling ---------------------------------------------------
    def functions_on(self, node: str) -> List[str]:
        """Functions whose authoritative placement is ``node``."""
        return [fn for fn, n in self.placement.items() if n == node]

    def node_failed(self, node: str) -> List[str]:
        """Route invalidation for a dead node (§3.5.5 health machinery).

        Withdraws every route pointing at the node cluster-wide, so
        engines observe the loss as a ``RouteError`` (drop) instead of
        posting into a black hole.  Placement is retained — the
        functions come back with the node.
        """
        if node in self.failed_nodes:
            return []
        self.failed_nodes.add(node)
        downed = self.functions_on(node)
        for fn_id in downed:
            for routes in self._subscribers:
                routes.remove_route(fn_id)
        self.events.append(("node-failed", node, tuple(downed)))
        return downed

    def node_recovered(self, node: str) -> List[str]:
        """Re-publish routes for a node that came back."""
        if node not in self.failed_nodes:
            return []
        self.failed_nodes.discard(node)
        restored = self.functions_on(node)
        for fn_id in restored:
            for routes in self._subscribers:
                routes.set_route(fn_id, node)
        self.events.append(("node-recovered", node, tuple(restored)))
        return restored
