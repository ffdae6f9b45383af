"""Platform assembly: cluster + fabric + engines + tenants + functions.

:class:`ServerlessPlatform` wires together the whole testbed for one
data-plane configuration.  The configuration is expressed as an
``engine_builder`` — a callable producing each worker node's network
engine (Palladium's DNE, the CNE, or one of the baseline engines from
:mod:`repro.baselines`) — plus per-design sidecar and intra-node IPC
cost overrides.

Typical use::

    plat = ServerlessPlatform(env, engine_builder=build_dne)
    plat.add_tenant(Tenant("chain-a", weight=6))
    plat.deploy(FunctionSpec("frontend", "chain-a", handler), "worker0")
    plat.start()
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..config import CostModel
from ..dne import ComchE, DpuNetworkEngine, DwrrScheduler, NetworkEngine
from ..hw import Cluster, Node, build_cluster
from ..memory import (
    CrossProcessorExporter,
    MemoryPool,
    RemoteMap,
    TenantMemoryRegistry,
    create_from_export,
)
from ..rdma import RdmaFabric
from ..sim import Environment
from ..telemetry.metrics import Gauge

from .coordinator import Coordinator
from .function import FunctionInstance, FunctionSpec
from .iolib import IoLibrary, KernelTcpFallback, NodeRuntime
from .tenant import Tenant

__all__ = ["ServerlessPlatform", "build_palladium_dne"]

EngineBuilder = Callable[
    [Environment, Node, RdmaFabric, CostModel], Optional[NetworkEngine]
]


def build_palladium_dne(
    env: Environment, node: Node, fabric: RdmaFabric, cost: CostModel
) -> NetworkEngine:
    """Default engine builder: Palladium's DNE with Comch-E and DWRR."""
    channel = ComchE(env, cost, name=f"comch:{node.name}")
    return DpuNetworkEngine(
        env, node, fabric, cost, channel,
        scheduler=DwrrScheduler(),
        name=f"dne:{node.name}",
    )


class ServerlessPlatform:
    """The assembled multi-node serverless cloud for one data plane."""

    def __init__(
        self,
        env: Environment,
        cost: Optional[CostModel] = None,
        workers: int = 2,
        engine_builder: EngineBuilder = build_palladium_dne,
        sidecar_us: Optional[float] = None,
        intra_ipc_us: Optional[float] = None,
        recv_buffers: int = 128,
    ):
        self.env = env
        self.cost = cost or CostModel()
        self.cluster: Cluster = build_cluster(env, self.cost, workers=workers)
        self.fabric = RdmaFabric(env, self.cluster, self.cost)
        self.coordinator = Coordinator()
        self.recv_buffers = recv_buffers
        self.runtimes: Dict[str, NodeRuntime] = {}
        self.engines: Dict[str, NetworkEngine] = {}
        for worker in self.cluster.workers:
            engine = engine_builder(env, worker, self.fabric, self.cost)
            runtime = NodeRuntime(
                env, worker, self.cost,
                engine=engine,
                sidecar_us=sidecar_us,
                intra_ipc_us=intra_ipc_us,
            )
            self.runtimes[worker.name] = runtime
            if engine is not None:
                self.engines[worker.name] = engine
                self.coordinator.subscribe(engine.routes)
        for name, engine in self.engines.items():
            engine.peers = dict(self.engines)
        #: kernel-TCP escape hatch shared by all worker runtimes, used
        #: while a node's engine is down (graceful degradation)
        self.tcp_fallback = KernelTcpFallback(
            env, self.cost, self.cluster, self.runtimes
        )
        for runtime in self.runtimes.values():
            runtime.fallback = self.tcp_fallback
            if runtime.engine is not None:
                runtime.engine.conn_mgr.peer_alive = self._peer_alive

        self._registries: Dict[str, TenantMemoryRegistry] = {
            node: TenantMemoryRegistry(env) for node in self.runtimes
        }
        self.tenants: Dict[str, Tenant] = {}
        self.functions: Dict[str, FunctionInstance] = {}
        self._started = False

        #: nodes currently being gracefully drained / already withdrawn
        self.draining_nodes: set = set()
        self.withdrawn_nodes: set = set()
        self._migrator = None
        #: kill-and-cold-start relocations, by function
        self.cold_relocations: Dict[str, int] = Counter()
        if env.telemetry is not None:
            self._export_metrics(env.telemetry.metrics)

    # -- tenants -------------------------------------------------------------
    def add_tenant(self, tenant: Tenant) -> None:
        """Create the tenant's per-node pools and register with engines."""
        if tenant.name in self.tenants:
            raise ValueError(f"tenant {tenant.name!r} already exists")
        self.tenants[tenant.name] = tenant
        for node_name, runtime in self.runtimes.items():
            registry = self._registries[node_name]
            agent = registry.create_tenant_pool(
                tenant.name,
                tenant.pool_buffers,
                tenant.buffer_bytes,
                file_prefix=f"palladium_{tenant.name}_{node_name}",
            )
            runtime.add_pool(tenant.name, agent.pool)
            engine = runtime.engine
            if engine is not None:
                remote_map = self._export_pool(agent.pool, engine)
                engine.setup_tenant(
                    tenant.name, agent.pool, remote_map,
                    weight=tenant.weight, recv_buffers=self.recv_buffers,
                )

    def _export_pool(
        self, pool: MemoryPool, engine: NetworkEngine
    ) -> Optional[RemoteMap]:
        """Cross-processor export for DPU engines (§3.4.2); None otherwise."""
        if isinstance(engine, DpuNetworkEngine):
            exporter = CrossProcessorExporter(pool).export_pci().export_rdma()
            return create_from_export(exporter.descriptor())
        return None

    def pool_for(self, tenant: str, node: str) -> MemoryPool:
        return self.runtimes[node].pool_for(tenant)

    # -- QoS / overload protection (repro.qos) --------------------------------
    def enable_qos(self, bounds=None, credits: bool = False,
                   credit_base: int = 64, credit_min: int = 4,
                   credit_low_water: Optional[int] = None,
                   credit_high_water: Optional[int] = None,
                   credit_sources: Tuple[str, ...] = ()) -> None:
        """Opt every worker engine into overload protection.

        Thin fan-out over :meth:`NetworkEngine.enable_qos`; see
        :mod:`repro.qos`.  Never called → the platform is byte-for-byte
        the pre-QoS platform.
        """
        for engine in self.engines.values():
            engine.enable_qos(
                bounds=bounds, credits=credits,
                credit_base=credit_base, credit_min=credit_min,
                credit_low_water=credit_low_water,
                credit_high_water=credit_high_water,
                credit_sources=credit_sources,
            )

    # -- deployment -----------------------------------------------------------
    def deploy(self, spec: FunctionSpec, node_name: str) -> FunctionInstance:
        """Deploy a function instance onto a worker node and publish
        its routes through the coordinator."""
        if spec.name in self.functions:
            raise ValueError(f"function {spec.name!r} already deployed")
        if spec.tenant not in self.tenants:
            raise KeyError(f"unknown tenant {spec.tenant!r}")
        runtime = self.runtimes[node_name]
        iolib = IoLibrary(runtime, spec.name, spec.tenant)
        instance = FunctionInstance(self.env, spec, iolib)
        runtime.register_endpoint(spec.name, instance.inbox, tenant=spec.tenant)
        # every node must know the function's security domain, even
        # where the function is not local (§3.1)
        for other in self.runtimes.values():
            other.endpoint_tenants.setdefault(spec.name, spec.tenant)
        self.coordinator.function_created(spec.name, node_name)
        self.functions[spec.name] = instance
        if self._started:
            instance.start()
        return instance

    def register_external(self, fn_id: str, node_name: str) -> None:
        """Publish a route for an endpoint living off-worker (ingress)."""
        self.coordinator.function_created(fn_id, node_name)

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        """Start engines (with warmed RC connections) and functions."""
        if self._started:
            raise RuntimeError("platform already started")
        self._started = True
        fabric_nodes = set(self.fabric.nodes)
        for node_name, engine in self.engines.items():
            warm: List[Tuple[str, str]] = []
            for other in self.runtimes:
                if other != node_name:
                    warm.extend((other, t) for t in self.tenants)
            if "ingress" in fabric_nodes:
                warm.extend(("ingress", t) for t in self.tenants)
            engine.start(warm_peers=warm)
        for instance in self.functions.values():
            instance.start()

    # -- failure injection & recovery ------------------------------------------------
    def _peer_alive(self, node_name: str) -> bool:
        """Liveness oracle for RC handshakes (unknown peers: assume up)."""
        runtime = self.runtimes.get(node_name)
        return True if runtime is None else runtime.alive

    def crash_node(self, node_name: str, recovery: bool = True) -> None:
        """Fail-stop crash of a worker node.

        The physical consequences always happen: the RNIC dies (RNR
        stalls flush), the engine dies (QPs error at both ends), and
        every function instance placed there stops.  With ``recovery``
        (the default) the control plane also reacts: the coordinator
        withdraws routes to the node and surviving engines evict their
        torn QPs and start background reconnects.  ``recovery=False``
        models the no-failure-handling baseline.
        """
        runtime = self.runtimes[node_name]
        if not runtime.alive:
            return
        runtime.alive = False
        engine = runtime.engine
        if engine is not None:
            engine.rnic.fail()
            engine.crash()
        for fn_id in self.coordinator.functions_on(node_name):
            instance = self.functions.get(fn_id)
            if instance is not None:
                instance.crash()
        for other_name, other in self.engines.items():
            if other_name != node_name:
                other.conn_mgr.fail_peer(
                    node_name, cause=f"node {node_name} crashed"
                )
        if recovery:
            self.coordinator.node_failed(node_name)
            for other_name, other in self.engines.items():
                if other_name == node_name:
                    continue
                other.conn_mgr.evict_errored()
                for tenant in self.tenants:
                    other.conn_mgr.schedule_reconnect(node_name, tenant)

    def restart_node(self, node_name: str, recovery: bool = True) -> None:
        """Bring a crashed worker node back up."""
        runtime = self.runtimes[node_name]
        if runtime.alive:
            return
        runtime.alive = True
        engine = runtime.engine
        if engine is not None:
            engine.rnic.recover()
            engine.conn_mgr.evict_errored()
            engine.restart()
        for fn_id in self.coordinator.functions_on(node_name):
            instance = self.functions.get(fn_id)
            if instance is not None:
                instance.recover()
        if recovery:
            self.coordinator.node_recovered(node_name)

    # -- live migration & graceful drains (repro.migration) -------------------
    @property
    def migrator(self):
        """Lazily-built :class:`repro.migration.LiveMigrator`.

        Constructed on first use so platforms that never migrate carry
        zero migration state (byte-identical determinism gate).  The
        import is deferred to keep :mod:`repro.migration` free of a
        cycle with this package.
        """
        if self._migrator is None:
            from ..migration import LiveMigrator
            self._migrator = LiveMigrator(self)
        return self._migrator

    def make_iolib(self, fn_id: str, tenant: str, node_name: str) -> IoLibrary:
        """A fresh I/O library binding ``fn_id`` to ``node_name``."""
        return IoLibrary(self.runtimes[node_name], fn_id, tenant)

    def migrate_function(self, fn_id: str, dst_node: str, **kwargs):
        """Generator: live-migrate one function (see ``LiveMigrator``)."""
        return self.migrator.migrate(fn_id, dst_node, **kwargs)

    def _drain_target(self, exclude: str) -> Optional[str]:
        """Least-loaded live worker to receive a drained function."""
        candidates = []
        for name, runtime in self.runtimes.items():
            if name == exclude or not runtime.alive:
                continue
            if name in self.draining_nodes or name in self.withdrawn_nodes:
                continue
            placed = sum(1 for fn in self.coordinator.functions_on(name)
                         if fn in self.functions)
            candidates.append((placed, name))
        if not candidates:
            return None
        return min(candidates)[1]

    def drain_node(self, node_name: str, deadline_us: Optional[float] = None,
                   state_bytes: Optional[int] = None,
                   withdraw_grace_us: float = 1_000.0):
        """Generator: gracefully drain and withdraw a worker node.

        Live-migrates every function placed on ``node_name`` to the
        least-loaded surviving worker (serially — one checkpoint image
        in flight at a time keeps the fabric blip bounded), then stops
        the node's engine and marks it withdrawn.  With ``deadline_us``
        the whole drain must finish in time; when the budget runs out
        the remaining functions fall back to crash semantics
        (``crash_node``), exactly what an expired maintenance window
        does to a straggler in production.  Returns the ids migrated.
        """
        if state_bytes is None:
            from ..migration import DEFAULT_STATE_BYTES
            state_bytes = DEFAULT_STATE_BYTES
        env = self.env
        runtime = self.runtimes[node_name]
        if not runtime.alive or node_name in self.draining_nodes:
            return []
        start = env.now
        self.draining_nodes.add(node_name)
        migrated: List[str] = []
        try:
            for fn_id in sorted(self.coordinator.functions_on(node_name)):
                if fn_id not in self.functions:
                    continue  # adapters/pseudo-endpoints do not migrate
                target = self._drain_target(node_name)
                if target is None:
                    break
                timeout = None
                if deadline_us is not None:
                    timeout = deadline_us - (env.now - start)
                    if timeout <= 0:
                        break
                record = yield from self.migrator.migrate(
                    fn_id, target, state_bytes=state_bytes,
                    quiesce_timeout_us=timeout)
                if not record.ok:
                    break
                migrated.append(fn_id)
            leftovers = sorted(
                fn for fn in self.coordinator.functions_on(node_name)
                if fn in self.functions)
            if leftovers:
                self.coordinator.events.append(
                    ("node-drain-expired", node_name, tuple(leftovers)))
                self.crash_node(node_name, recovery=True)
                return migrated
            # Empty node: let stragglers clear the forwarders, then
            # withdraw — engine stops cleanly, no QP errors at peers.
            yield env.timeout(withdraw_grace_us)
            engine = self.engines.get(node_name)
            if engine is not None:
                engine.stop()
            runtime.alive = False
            self.withdrawn_nodes.add(node_name)
            self.coordinator.events.append(
                ("node-drained", node_name, tuple(migrated)))
            return migrated
        finally:
            self.draining_nodes.discard(node_name)

    # -- measurement helpers ----------------------------------------------------------
    def usage_snapshot(self) -> Dict[str, float]:
        """Snapshot of cumulative busy counters (for windowed metrics)."""
        snap: Dict[str, float] = {"app": sum(f.app_time_us for f in self.functions.values())}
        for name, runtime in self.runtimes.items():
            snap[f"cpu:{name}"] = runtime.node.cpu.total_busy_time()
            if runtime.node.dpu is not None:
                snap[f"dpu:{name}"] = runtime.node.dpu.total_busy_time()
        for name, engine in self.engines.items():
            snap[f"engine:{name}"] = engine.busy_us
        return snap

    def _export_metrics(self, metrics) -> None:
        """Report the state the platform objects keep, read at export."""
        def gauge(name, help, labels, read):
            metrics.collect(name, help, labels, read, Gauge)
        engines = self.engines.values
        gauge("core_busy_us", "Cumulative busy time per core complex.",
              ("node", "complex"),
              lambda: {(n, c): getattr(r.node, c).total_busy_time()
                       for n, r in self.runtimes.items() for c in ("cpu", "dpu")
                       if getattr(r.node, c) is not None})
        gauge("fn_app_time_us", "Cumulative application compute per function.", ("fn",),
              lambda: {fn_id: i.app_time_us for fn_id, i in self.functions.items()})
        gauge("engine_busy_us", "Cumulative engine core occupancy.", ("engine",),
              lambda: {e.name: e.busy_us for e in engines()})
        gauge("scheduler_events", "Tenant-scheduler counters.", ("engine", "event"),
              lambda: {(e.name, ev): getattr(e.scheduler, ev) for e in engines()
                       for ev in ("enqueued", "dequeued", "dropped", "peak_backlog")})
        gauge("scheduler_fairness_ratio", "Measured weighted-fairness ratio (min/max "
              "normalised share).", ("engine",),
              lambda: {e.name: e.scheduler.fairness_ratio() for e in engines()})
        gauge("scheduler_tenant_bytes", "Per-tenant scheduler byte ledgers.",
              ("engine", "tenant", "dir"),
              lambda: {(e.name, t, "dequeued"): nbytes for e in engines()
                       for t, nbytes in e.scheduler.tenant_bytes_dequeued.items()})
        gauge("engine_credits", "Credit-controller lifetime counters.",
              ("engine", "event"),
              lambda: {(e.name, ev): getattr(e.qos_credits, ev) for e in engines()
                       if e.qos_credits is not None
                       for ev in ("granted", "released", "blocked")})
        gauge("rc_connections", "RC connection pool state.", ("node", "state"),
              lambda: {(n, state): count for n, e in self.engines.items()
                       for state, count in (("active", e.conn_mgr.active_count()),
                                            ("pooled", e.conn_mgr.pooled_count()),
                                            ("evicted", e.conn_mgr.evicted_qps))})
        metrics.collect("cold_relocations_total", "Kill-and-cold-start relocations.",
                        ("fn",), self.cold_relocations.items)

    def dpu_cpu_pct(self, since: float = 0.0,
                    baseline: Optional[Dict[str, float]] = None) -> float:
        """DPU core occupancy across workers, % of one core."""
        elapsed = self.env.now - since
        if elapsed <= 0:
            return 0.0
        baseline = baseline or {}
        total = sum(
            r.node.dpu.total_busy_time() - baseline.get(f"dpu:{name}", 0.0)
            for name, r in self.runtimes.items()
            if r.node.dpu is not None
        )
        return 100.0 * total / elapsed
