"""Routing state: intra-node and inter-node tables (§3.5.5).

* The **intra-node routing table** lives in the unified memory pool on
  the host and is read-only for functions: it answers "is this
  destination function local?" (the sockmap then redirects by function
  id).
* The **inter-node routing table** lives on the DPU and maps remote
  function ids to their hosting node, letting the DNE pick the right
  RC connection.

A control-plane coordinator (CNI-like) watches deployment events and
pushes updates to both tables; versioning lets tests assert that stale
routes are replaced, not accumulated.
"""

from __future__ import annotations

from typing import Dict, Set

__all__ = ["IntraNodeRoutes", "InterNodeRoutes", "RouteError"]


class RouteError(LookupError):
    """No route exists for the requested function."""


class IntraNodeRoutes:
    """Host-side: the function ids present on this node."""

    def __init__(self, node: str):
        self.node = node
        self._local: Set[str] = set()
        self.version = 0

    def add_function(self, fn_id: str) -> None:
        self._local.add(fn_id)
        self.version += 1

    def remove_function(self, fn_id: str) -> None:
        if fn_id in self._local:
            self._local.remove(fn_id)
            self.version += 1

    def is_local(self, fn_id: str) -> bool:
        return fn_id in self._local


class InterNodeRoutes:
    """DPU-side: function id -> hosting node name."""

    def __init__(self, node: str):
        self.node = node
        self._routes: Dict[str, str] = {}
        self.version = 0

    def set_route(self, fn_id: str, node: str) -> None:
        self._routes[fn_id] = node
        self.version += 1

    def remove_route(self, fn_id: str) -> None:
        if self._routes.pop(fn_id, None) is not None:
            self.version += 1

    def node_for(self, fn_id: str) -> str:
        try:
            return self._routes[fn_id]
        except KeyError:
            raise RouteError(f"no inter-node route for {fn_id!r} on {self.node}") from None

    @property
    def routes(self) -> Dict[str, str]:
        return dict(self._routes)
