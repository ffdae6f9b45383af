"""Function elasticity: replicas, scale-out/in, and termination churn.

The paper motivates Palladium's flexible provisioning with serverless
dynamics: "frequent configuration changes due to workload variation,
function placement and auto-scaling require corresponding flexibility
in provisioning of compute/network resources for each tenant" (§1).
This module supplies that churn:

* A :class:`ServiceGroup` maps a logical service name to its replica
  instances; callers invoke the *service*, and per-sender round-robin
  resolution spreads requests over replicas wherever they live.
* :meth:`ElasticPlatform.scale_out` deploys another replica (on any
  node) and publishes its routes through the coordinator; requests
  begin flowing to it immediately.
* :meth:`ElasticPlatform.scale_in` retires a replica: its routes are
  withdrawn first (new requests avoid it), then the instance drains.
* :meth:`ElasticPlatform.autoscaler` builds the hysteresis
  :class:`~repro.platform.autoscaling.Autoscaler` that drives both from
  a service's mean per-replica backlog.

The resolution hook lives in the I/O library, mirroring where the real
system's intra-node routing table lookup happens.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .autoscaling import Autoscaler
from .cluster import ServerlessPlatform
from .function import FunctionInstance, FunctionSpec

__all__ = ["ServiceGroup", "ElasticPlatform"]


class ServiceGroup:
    """A logical service and its live replica set."""

    def __init__(self, service: str):
        self.service = service
        self.replicas: List[str] = []
        self._rr = itertools.count()

    def pick(self) -> str:
        """Round-robin over live replicas."""
        if not self.replicas:
            raise LookupError(f"service {self.service!r} has no live replicas")
        return self.replicas[next(self._rr) % len(self.replicas)]

    def add(self, instance_id: str) -> None:
        self.replicas.append(instance_id)

    def remove(self, instance_id: str) -> None:
        self.replicas.remove(instance_id)

    def __len__(self) -> int:
        return len(self.replicas)


class ElasticPlatform(ServerlessPlatform):
    """A :class:`ServerlessPlatform` with replicated, scalable services.

    ``deploy_service`` replaces ``deploy`` for elastic functions; plain
    ``deploy`` still works for singletons (the two interoperate — a
    singleton may invoke a service and vice versa).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.services: Dict[str, ServiceGroup] = {}
        self._replica_seq: Dict[str, itertools.count] = {}
        #: node -> replica ids pulled from rotation by a node failure
        self._failed_replicas: Dict[str, List[str]] = {}
        # Patch service resolution into every node's send path.
        for runtime in self.runtimes.values():
            runtime.resolve_service = self.resolve_service

    # -- service lifecycle -----------------------------------------------------
    def deploy_service(self, spec: FunctionSpec, node_name: str,
                       replicas: int = 1) -> List[FunctionInstance]:
        """Deploy a replicated service; returns its instances."""
        if spec.name in self.services:
            raise ValueError(f"service {spec.name!r} already deployed")
        self.services[spec.name] = ServiceGroup(spec.name)
        self._replica_seq[spec.name] = itertools.count()
        return [self.scale_out(spec, node_name) for _ in range(replicas)]

    def scale_out(self, spec: FunctionSpec, node_name: str) -> FunctionInstance:
        """Add one replica of an (already declared) service."""
        group = self.services.get(spec.name)
        if group is None:
            raise KeyError(f"unknown service {spec.name!r}; deploy_service first")
        index = next(self._replica_seq[spec.name])
        replica_spec = FunctionSpec(
            name=f"{spec.name}#{index}",
            tenant=spec.tenant,
            handler=spec.handler,
            work_us=spec.work_us,
            concurrency=spec.concurrency,
            response_bytes=spec.response_bytes,
        )
        instance = self.deploy(replica_spec, node_name)
        group.add(replica_spec.name)
        return instance

    def scale_in(self, service: str, instance_id: Optional[str] = None) -> str:
        """Retire one replica: withdraw routes, then let it drain.

        Returns the retired instance id.  In-flight requests already
        delivered to the replica complete normally; requests resolved
        after withdrawal go to the remaining replicas.
        """
        group = self.services.get(service)
        if group is None:
            raise KeyError(f"unknown service {service!r}")
        if len(group) <= 0:
            raise RuntimeError(f"service {service!r} has no replicas to retire")
        victim = instance_id or group.replicas[-1]
        group.remove(victim)
        # Coordinator withdraws routes cluster-wide; the instance object
        # stays alive to drain its queue (§3.5.5 termination events).
        self.coordinator.function_terminated(victim)
        return victim

    def replica_count(self, service: str) -> int:
        return len(self.services[service])

    def mean_backlog(self, service: str) -> float:
        """Mean queued requests per live replica of ``service``."""
        replicas = self.services[service].replicas
        if not replicas:
            return 0.0
        backlog = sum(self.functions[rid].backlog() for rid in replicas)
        return backlog / len(replicas)

    def autoscaler(self, spec: FunctionSpec, nodes: List[str], *,
                   min_count: int = 1, max_count: int = 8,
                   low: float = 0.5, high: float = 4.0,
                   period_us: float = 20_000.0) -> Autoscaler:
        """A replica controller for one service on its mean backlog;
        it scales out round-robin over ``nodes``.  Call ``start()``."""
        service = spec.name
        placement = itertools.cycle(nodes)
        return Autoscaler(
            self.env,
            signal=lambda: self.mean_backlog(service),
            count=lambda: self.replica_count(service),
            grow=lambda: self.scale_out(spec, next(placement)),
            shrink=lambda: self.scale_in(service),
            low=low, high=high, min_count=min_count, max_count=max_count,
            period_us=period_us, name=f"fn-autoscale:{service}",
        )

    # -- failover --------------------------------------------------------------
    def handle_node_failure(self, node_name: str) -> List[str]:
        """Remove replicas placed on a dead node from their services.

        Requests resolved afterwards round-robin over the surviving
        replicas only — the availability half of the failover story.
        Returns the replica ids taken out of rotation.
        """
        removed: List[str] = []
        for group in self.services.values():
            for rid in list(group.replicas):
                if self.coordinator.placement.get(rid) == node_name:
                    group.remove(rid)
                    removed.append(rid)
        self._failed_replicas[node_name] = removed
        return removed

    def handle_node_recovery(self, node_name: str) -> List[str]:
        """Put a recovered node's replicas back into rotation.

        Only replicas whose *authoritative placement* still points at
        the recovering node return: a replica live-migrated away during
        the outage was already re-placed (and is back in rotation on
        its new node) — resurrecting the stale record would split the
        service between a real instance and a ghost route.
        """
        candidates = self._failed_replicas.pop(node_name, [])
        restored: List[str] = []
        for rid in candidates:
            if self.coordinator.placement.get(rid) != node_name:
                continue  # migrated away while the node was down
            service = rid.rsplit("#", 1)[0]
            group = self.services.get(service)
            if group is not None and rid not in group.replicas:
                group.add(rid)
            restored.append(rid)
        return restored

    def crash_node(self, node_name: str, recovery: bool = True) -> None:
        super().crash_node(node_name, recovery=recovery)
        if recovery:
            self.handle_node_failure(node_name)

    def restart_node(self, node_name: str, recovery: bool = True) -> None:
        super().restart_node(node_name, recovery=recovery)
        if recovery:
            self.handle_node_recovery(node_name)

    # -- resolution hook (called from IoLibrary.send and gateways) -------------------
    def resolve_service(self, dst: str) -> str:
        """Logical service name -> live replica id (identity otherwise)."""
        group = self.services.get(dst)
        if group is None:
            return dst
        return group.pick()
