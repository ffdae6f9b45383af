"""The DPU Network Engine (DNE) and its CPU-hosted variant (CNE).

The DNE (§3.2) is a node-wide reverse proxy that owns the node's RDMA
resources on behalf of untrusted tenant functions:

* A **core thread** (control plane) imports the cross-processor memory
  maps, registers tenant pools with the RNIC, pre-establishes RC
  connections, replenishes shared receive queues in proportion to
  consumed completions (red arrows of Fig. 7), and demotes idle QPs to
  shadow state.
* One **worker thread** executes a non-blocking run-to-completion loop
  pinned to a (wimpy) DPU core.  Each iteration fully processes one
  event — either a TX descriptor from a local function (routing lookup,
  least-congested RC connection, WR post) or an RX completion (RBR
  lookup, descriptor hand-off to the destination function's Comch
  endpoint).  Tenant TX order is arbitrated by a pluggable scheduler
  (DWRR for Palladium, FCFS for the baseline of Fig. 15).

The engine runs in **off-path** mode by default: payloads move directly
between host memory and the RNIC ("RNIC DMA at line rate"), the engine
only touching 16-byte descriptors.  In **on-path** mode (the Fig. 11
baseline) every payload is staged through DPU-local memory via the slow
SoC DMA engine, which the run-to-completion loop must wait on — the
source of the on-path collapse under concurrency.

:class:`CpuNetworkEngine` (Palladium-CNE, §4.3) is the identical engine
pinned to a *host* core, speaking SK_MSG to co-located functions
instead of Comch; it pays interrupt-driven IPC costs that grow with
concurrency.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Tuple

from ..config import CostModel
from ..hw import Node, PinnedCore, work_us
from ..memory import BufferDescriptor, MemoryPool, PoolExhausted, RemoteMap
from ..rdma import (
    Completion,
    ConnectionManager,
    Opcode,
    RdmaFabric,
    WorkRequest,
)
from ..qos import CreditController, QueueBounds
from ..sim import Environment, Event, RateMeter

from .comch import DescriptorChannel
from .routing import InterNodeRoutes, RouteError
from .scheduler import DwrrScheduler, FcfsScheduler, TenantScheduler

__all__ = ["NetworkEngine", "DpuNetworkEngine", "CpuNetworkEngine", "EngineStats"]


class EngineStats:
    """Counts and meters the experiments and exporters read off an engine."""

    def __init__(self, bucket_us: float = 1_000_000.0):
        self.recycled = 0
        #: data-path drops by stage: tx, rx or transit
        self.drops: Dict[str, int] = Counter()
        #: messages shed by the bounded scheduler, by (tenant, policy)
        self.shed: Dict[Tuple[str, str], int] = Counter()
        #: SEND completions that came back failed (flushed QPs)
        self.tx_errors = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        #: per-tenant transmit completions (Fig. 15 time series)
        self.tenant_tx: Dict[str, RateMeter] = {}
        #: per-tenant RX completions delivered
        self.tenant_rx: Dict[str, int] = Counter()
        self.bucket_us = bucket_us

    @property
    def tx_messages(self) -> int:
        return sum(meter.count for meter in self.tenant_tx.values())

    @property
    def rx_messages(self) -> int:
        return sum(self.tenant_rx.values())

    @property
    def dropped(self) -> int:
        return sum(self.drops.values()) + sum(self.shed.values())

    def tenant_meter(self, tenant: str) -> RateMeter:
        if tenant not in self.tenant_tx:
            self.tenant_tx[tenant] = RateMeter(tenant, bucket=self.bucket_us)
        return self.tenant_tx[tenant]

    def export(self, collect, engine: str, data_path: bool = True) -> None:
        """Report these counts as ``engine``'s metric families; without
        ``data_path``, only those of the SEND-completion and scheduler
        paths every engine shares."""
        collect("engine_tx_errors_total", "SEND completions that came back failed.",
                ("engine",), lambda: {engine: self.tx_errors})
        collect("qos_sched_dropped_total", "Messages shed by bounded tenant queues.",
                ("engine", "tenant", "policy"),
                lambda: {(engine,) + k: n for k, n in self.shed.items()})
        dropped = ("engine_dropped_total", "Messages dropped by an engine.",
                   ("engine", "stage"))
        collect(*dropped, lambda: (((engine, p), n) for (_, p), n in self.shed.items()))
        if not data_path:
            return
        collect(*dropped, lambda: {(engine, s): n for s, n in self.drops.items()})
        collect("engine_tx_total", "TX descriptors processed by an engine.",
                ("engine", "tenant"),
                lambda: {(engine, t): m.count for t, m in self.tenant_tx.items()})
        collect("engine_rx_total", "RX completions delivered by an engine.",
                ("engine", "tenant"),
                lambda: {(engine, t): n for t, n in self.tenant_rx.items()})


class _TenantState:
    """Engine-side per-tenant bookkeeping."""

    def __init__(self, pool: MemoryPool, remote_map: Optional[RemoteMap], weight: float,
                 recv_buffers: int):
        self.pool = pool
        self.remote_map = remote_map
        self.weight = weight
        self.recv_buffers = recv_buffers


class NetworkEngine:
    """Run-to-completion network engine (base for DNE and CNE)."""

    MODE_OFF_PATH = "off-path"
    MODE_ON_PATH = "on-path"

    def __init__(
        self,
        env: Environment,
        node: Node,
        fabric: RdmaFabric,
        cost: CostModel,
        channel: DescriptorChannel,
        scheduler: Optional[TenantScheduler] = None,
        mode: str = MODE_OFF_PATH,
        name: str = "",
        replenish_period_us: float = 50.0,
        stats_bucket_us: float = 1_000_000.0,
    ):
        if mode not in (self.MODE_OFF_PATH, self.MODE_ON_PATH):
            raise ValueError(f"unknown engine mode {mode!r}")
        self.env = env
        self.node = node
        self.fabric = fabric
        self.cost = cost
        self.channel = channel
        self.scheduler = scheduler if scheduler is not None else FcfsScheduler()
        self.mode = mode
        self.name = name or f"engine:{node.name}"
        self.agent = self.name
        self.replenish_period_us = replenish_period_us

        self.rnic = fabric.install_rnic(node.name)
        self.conn_mgr = ConnectionManager(env, fabric, node.name, cost)
        self.routes = InterNodeRoutes(node.name)
        self.stats = EngineStats(bucket_us=stats_bucket_us)
        if env.telemetry is not None:
            self._export_metrics(env.telemetry.metrics)

        self._tenants: Dict[str, _TenantState] = {}
        #: receive buffers owed to each tenant's shared RQ when the
        #: pool was empty at replenish time; recycled buffers repay this
        #: debt *before* returning to the pool, so RQ credits can never
        #: be starved by waiting senders (credit-deadlock avoidance).
        self._recv_deficit: Dict[str, int] = {}
        #: sibling engines by node name (used by baseline engines whose
        #: transport is not RDMA two-sided; populated by the platform)
        self.peers: Dict[str, "NetworkEngine"] = {}
        #: worker-loop event queue; a plain deque — only the worker
        #: loop consumes it and it never blocks on a get, so the Store
        #: machinery (getter queues, events) would be pure overhead
        self._rx_inbox: Deque[tuple] = deque()
        self._wakeup: Optional[Event] = None
        self._running = False
        #: False while the engine is down (crash); the iolib falls back
        #: to the kernel-TCP path when a runtime has one configured.
        self.available = True
        #: generation counter: loops from before a crash observe a
        #: stale epoch and exit instead of double-running after restart.
        self._epoch = 0
        self._warm_peers: List[Tuple[str, str]] = []
        self.crashes = 0
        self.restarts = 0
        self.core: Optional[PinnedCore] = None
        #: host-core-equivalent us of engine work executed (CPU
        #: accounting for Fig. 16 (4)-(6))
        self.busy_us = 0.0
        #: credit-based backpressure window (None until ``enable_qos``
        #: is called with credits — the default data path never pays
        #: for flow control it did not ask for)
        self.qos_credits: Optional[CreditController] = None
        #: message sources whose engine-RX processing repays a credit
        #: the *sender* acquired (e.g. the ingress gateway's agent id)
        self._qos_credit_sources: frozenset = frozenset()

    def _export_metrics(self, metrics) -> None:
        self.stats.export(metrics.collect, self.name)  # read at export only

    # -- subclass hooks: one iteration's work, as (category, host_us) ----
    def _tx_charges(self) -> Tuple[Tuple[str, float], ...]:
        """Ingest + routing + WR build, then the DWRR decision."""
        return (
            ("descriptor",
             self.channel.ingest_cost_us() + self.cost.dne_tx_proc_us),
            ("scheduling", self.cost.dwrr_decision_us),
        )

    def _rx_charges(self) -> Tuple[Tuple[str, float], ...]:
        """RBR lookup, then the descriptor push to the function."""
        return (
            ("descriptor",
             self.cost.dne_rx_proc_us + self.channel.ingest_cost_us()),
        )

    # -- configuration --------------------------------------------------------
    def setup_tenant(
        self,
        tenant: str,
        pool: MemoryPool,
        remote_map: Optional[RemoteMap] = None,
        weight: float = 1.0,
        recv_buffers: int = 64,
    ) -> None:
        """Register a tenant: its pool, RNIC MR, weight, RQ depth."""
        if tenant in self._tenants:
            raise ValueError(f"tenant {tenant!r} already configured on {self.name}")
        self.rnic.register_pool(pool, remote_map)
        self._tenants[tenant] = _TenantState(pool, remote_map, weight, recv_buffers)
        if isinstance(self.scheduler, DwrrScheduler):
            self.scheduler.set_weight(tenant, weight)

    # -- QoS / overload protection (repro.qos) --------------------------------
    def qos_backlog(self) -> int:
        """Live engine backlog: queued RX events + scheduled TX items.

        The admission gate's delay estimator and the credit windows
        both read this; it is exactly the backlog the CNE's interrupt
        penalty already models.
        """
        return len(self._rx_inbox) + self.scheduler.pending()

    def enable_qos(
        self,
        bounds: Optional[QueueBounds] = None,
        credits: bool = False,
        credit_base: int = 64,
        credit_min: int = 4,
        credit_low_water: Optional[int] = None,
        credit_high_water: Optional[int] = None,
        credit_sources: Tuple[str, ...] = (),
    ) -> None:
        """Opt this engine into overload protection.

        ``bounds`` caps the tenant scheduler's queues (shed messages
        are retired/recycled/nacked exactly like a no-route drop).
        With ``credits`` the engine grants per-tenant credit windows to
        its senders, shrinking them as that tenant's DWRR backlog grows
        (hop-by-hop backpressure).  ``credit_sources`` lists message
        sources (agent ids) whose credits are repaid when the *RX* side
        of this engine processes their message — e.g. the ingress
        gateway, which acquires against the destination engine before
        posting the RDMA send.
        """
        if bounds is not None:
            self.scheduler.configure_bounds(
                bounds, on_drop=self._on_scheduler_drop,
                clock=lambda: self.env.now,
            )
        if credits:
            self.qos_credits = CreditController(
                self.env,
                base_credits=credit_base,
                min_credits=credit_min,
                low_water=credit_low_water,
                high_water=credit_high_water,
                backlog_fn=self.scheduler.backlog,
            )
        self._qos_credit_sources = frozenset(credit_sources)

    def _on_scheduler_drop(self, tenant: str, item, nbytes: int,
                           reason: str) -> None:
        """A bounded queue shed one of our TX descriptors: clean up.

        The descriptor was enqueued by the Comch inbox's sink, so the
        buffer and header are engine-owned here.  Mirror the no-route
        drop path: count it, nack any reliability-tracked sender,
        retire the header exactly once, recycle the buffer — and repay
        the sender's credit, since this message will never reach
        ``_handle_tx``.
        """
        _fn_id, descriptor = item
        message = descriptor.message
        self.stats.shed[tenant, reason] += 1
        message.settle(False)
        message.retire(self.agent)
        self._recycle(descriptor.buffer, tenant)
        if self.qos_credits is not None:
            self.qos_credits.release(tenant)

    # -- lifecycle ----------------------------------------------------------------
    def start(self, warm_peers: Optional[List[Tuple[str, str]]] = None) -> None:
        """Bring the engine up: pin the worker core, start all threads.

        ``warm_peers`` is a list of ``(remote_node, tenant)`` pairs
        whose RC connection pools are pre-established by the core
        thread before traffic flows (§3.3).
        """
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self._warm_peers = list(warm_peers or [])
        self.core = self._allocate_core()
        self._spawn()

    def _spawn(self) -> None:
        """Start the core thread and the worker loop for this epoch, and
        take CQEs and Comch descriptors through their stores' sinks
        (what queued while the engine was down first, in FIFO order)."""
        self._running = True
        epoch = self._epoch
        self.rnic.cq.set_sink(self._on_cqe)
        self.channel.server_inbox.set_sink(self._on_descriptor)
        self.env.process(self._core_thread(epoch), name=f"{self.name}-core")
        self.env.process(self._worker_loop(epoch), name=f"{self.name}-loop")

    def stop(self) -> None:
        """Halt the loops; arriving CQEs and descriptors stay queued."""
        self._running = False
        self._epoch += 1
        self.rnic.cq.set_sink(None)
        self.channel.server_inbox.set_sink(None)
        self._notify()

    def crash(self) -> None:
        """Fault injection: the engine process dies abruptly.

        All engine-held RDMA state (the pooled RC connections) dies
        with it — both QP ends flush to the ERROR state, so peers
        observe failed CQEs.  Arriving CQEs and descriptors stay queued
        and are processed after :meth:`restart` (the channel outlives
        the engine process, like a unix socket outlives a daemon).
        """
        if not self._running:
            return
        self.stop()
        self.available = False
        self.crashes += 1
        self.conn_mgr.fail_all(cause=f"{self.name} crashed")

    def restart(self, warm_peers: Optional[List[Tuple[str, str]]] = None) -> None:
        """Bring a crashed (or stopped) engine back up.

        The core thread re-runs connection warm-up, replacing the QPs
        torn down by the crash (errored QPs were evicted from the
        pools).
        """
        if self._running:
            raise RuntimeError(f"{self.name} already running")
        if warm_peers is not None:
            self._warm_peers = list(warm_peers)
        self.available = True
        self.restarts += 1
        self._spawn()

    def _run(self, *charges: Tuple[str, float]):
        """Engine work on its core, with busy accounting; ``yield`` it."""
        self.busy_us += work_us(charges) * self.core.factor
        return self.core.run(*charges)

    def engine_cpu_pct(self, since: float = 0.0,
                       baseline_busy_us: float = 0.0) -> float:
        """Engine core usage, % of one core.

        Pinned (busy-polling) engines occupy their core fully — the
        100 % the paper reports for the DNE and FUYAO; event-driven
        engines report actual busy time over the window (pass the
        ``busy_us`` snapshot taken at ``since``).
        """
        elapsed = self.env.now - since
        if elapsed <= 0:
            return 0.0
        if isinstance(self.core, PinnedCore):
            return 100.0
        return 100.0 * (self.busy_us - baseline_busy_us) / elapsed

    # -- wakeup plumbing -------------------------------------------------------------
    def _notify(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- input sinks ---------------------------------------------------------------
    def _on_cqe(self, completion: Completion) -> None:
        self._rx_inbox.append(("cqe", completion))
        self._notify()

    def _on_descriptor(self, item: Tuple[str, BufferDescriptor]) -> None:
        descriptor = item[1]
        self.scheduler.enqueue(descriptor.message.tenant or "default", item,
                               nbytes=max(1, descriptor.length))
        self._notify()

    def _core_thread(self, epoch: int):
        """Control plane: warm connections, replenish RQs, demote QPs."""
        # Receive buffers first: arrivals must never find an empty RQ.
        for tenant, state in self._tenants.items():
            self._post_recv_buffers(tenant, state.recv_buffers)
        # RC connection warm-up (off the critical path, in parallel).
        for remote_node, tenant in self._warm_peers:
            yield from self.conn_mgr.warm_up(remote_node, tenant)
        while self._running and self._epoch == epoch:
            yield self.env.timeout(self.replenish_period_us)
            if self._epoch != epoch:
                return
            for tenant, state in self._tenants.items():
                srq = self.rnic.srq(tenant)
                consumed = srq.consumed_since_replenish
                if consumed:
                    srq.consumed_since_replenish = 0
                    self._post_recv_buffers(tenant, consumed)
            self.conn_mgr.deactivate_idle()

    def _post_recv_buffers(self, tenant: str, count: int) -> None:
        state = self._tenants[tenant]
        posted = 0
        for _ in range(count):
            try:
                buf = state.pool.get(self.agent)
            except PoolExhausted:
                break
            self.rnic.post_recv(tenant, buf, self.agent)
            posted += 1
        if posted < count:
            # The pool is drained by in-flight traffic: remember the
            # shortfall and repay it straight from recycled buffers.
            self._recv_deficit[tenant] = (
                self._recv_deficit.get(tenant, 0) + count - posted
            )

    def _recycle(self, buffer, tenant: Optional[str]) -> None:
        """Return a buffer: owed receive credits first, then the pool."""
        if tenant is not None and self._recv_deficit.get(tenant, 0) > 0 \
                and buffer.pool is self._tenants[tenant].pool:
            self._recv_deficit[tenant] -= 1
            self.rnic.post_recv(tenant, buffer, buffer.owner)
        elif buffer.pool is not None:
            buffer.pool.put(buffer, buffer.owner)

    # -- the run-to-completion worker loop ------------------------------------------------
    def _worker_loop(self, epoch: int):
        """One event fully processed per iteration; RX before TX."""
        inbox = self._rx_inbox
        while self._running and self._epoch == epoch:
            if inbox:
                event = inbox.popleft()
                yield from self._handle_event(event)
                continue
            picked = self.scheduler.dequeue()
            if picked is not None:
                tenant, (fn_id, descriptor) = picked
                yield from self._handle_tx(tenant, fn_id, descriptor)
                continue
            wakeup = self.env.event()
            self._wakeup = wakeup
            yield wakeup
            if self._wakeup is wakeup:  # a stale loop must not clobber
                self._wakeup = None     # the restarted loop's event


    # -- TX stage (Fig. 7) --------------------------------------------------------
    def _handle_tx(self, tenant: str, src_fn: str, descriptor: BufferDescriptor):
        if self.qos_credits is not None:
            # The descriptor left the scheduler: the local sender's
            # credit is repaid the moment the engine takes over.
            self.qos_credits.release(tenant)
        buffer = descriptor.buffer
        buffer.check_owner(self.agent)
        message = descriptor.message
        if message.owner is not None:
            # Driver-built messages enter unowned and are adopted at
            # their first transfer; protocol traffic must be ours.
            message.check_owner(self.agent)
        dst_fn = message.dst
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.start_span(
                "engine.tx", parent=message.trace,
                category="engine", node=self.node.name, actor=self.name,
                tenant=tenant, src=src_fn, dst=dst_fn,
                bytes=descriptor.length)
            message.trace = span.context
        # Ingest + routing + WR build, all on the engine's core.
        yield self._run(*self._tx_charges())
        try:
            dst_node = self.routes.node_for(dst_fn)
        except RouteError:
            # Scale-down race / failover: the destination was withdrawn
            # after the function posted.  Drop, recycle, nack any
            # reliability-tracked sender — never crash the loop.
            self.stats.drops["tx"] += 1
            message.settle(False)
            message.retire(self.agent)
            self._recycle(buffer, tenant)
            if tel is not None:
                span.event("drop", self.env.now, reason="no-route")
                tel.tracer.end_span(span, status="drop")
            return
        qp = yield from self.conn_mgr.get_connection(dst_node, tenant)
        wr = WorkRequest(
            opcode=Opcode.SEND,
            buffer=buffer,
            length=descriptor.length,
            message=message,
        )
        # Header handoff into the NIC domain; it rides the WR from here.
        message.transfer(self.agent, f"rnic:{self.node.name}")
        if self.mode == self.MODE_ON_PATH:
            # Stage the payload host -> DPU-local memory first.  The
            # transfer queues on the (weak) SoC DMA engine; the engine
            # loop moves on, but this message cannot hit the wire until
            # its copy lands — the Fig. 11 on-path penalty.
            def _staged_send():
                yield self.node.soc_dma.transfer(wr.length)
                self.rnic.post_send(qp, wr)
            self.env.process(_staged_send(), name=f"{self.name}-onpath-tx")
        else:
            self.rnic.post_send(qp, wr)
        self.stats.tx_bytes += descriptor.length
        self.stats.tenant_meter(tenant).record(self.env.now)
        if tel is not None:
            tel.tracer.end_span(span)

    # -- RX stage (Fig. 7) -----------------------------------------------------------
    def _handle_event(self, event):
        """Dispatch one RX-side event; subclasses add event kinds."""
        kind, payload = event
        if kind == "cqe":
            yield from self._handle_cqe(payload)
        else:
            raise ValueError(f"{self.name}: unknown engine event kind {kind!r}")

    def inject_event(self, kind: str, payload) -> None:
        """Queue an event for the worker loop (used by peer engines)."""
        self._rx_inbox.append((kind, payload))
        self._notify()

    def _handle_cqe(self, completion: Completion):
        cost = self.cost
        if completion.is_recv:
            yield from self._handle_recv(completion)
        elif completion.opcode == Opcode.SEND:
            # Send completed: tiny poll cost, recycle the source buffer.
            yield self._run(("descriptor", cost.mempool_op_us))
            if not completion.ok:
                self.stats.tx_errors += 1
            # Reliability hook: senders running with a retry budget ride
            # an ack event on the message; settle it with the completion
            # status (False for flushed CQEs).
            message = completion.message
            if message is not None:
                message.settle(completion.ok)
                if completion.flushed:
                    # A flushed SEND never left this NIC: reclaim the
                    # header so it is retired exactly once.
                    message.transfer(f"rnic:{self.node.name}", self.agent)
                    message.retire(self.agent)
            buffer = completion.buffer
            if buffer is not None:
                self._recycle(buffer, completion.tenant)
                self.stats.recycled += 1
        # other opcodes (one-sided) are not used by the Palladium engine

    def _handle_recv(self, completion: Completion):
        message = completion.message
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = tel.tracer.start_span(
                "engine.rx",
                parent=message.trace if message is not None else None,
                category="engine", node=self.node.name, actor=self.name,
                tenant=completion.tenant or "", bytes=completion.length)
        yield self._run(*self._rx_charges())
        if (self.qos_credits is not None and message is not None
                and message.src in self._qos_credit_sources):
            # A credit-holding sender (the ingress) posted this toward
            # us: its credit is repaid now that the RX event has been
            # consumed, whatever happens to the message next.
            self.qos_credits.release(message.tenant or "default")
        buffer = completion.buffer
        if not completion.ok:
            # Length error: reclaim the buffer (and header) and drop.
            self.stats.drops["rx"] += 1
            if message is not None:
                message.transfer(f"rnic:{self.node.name}", self.agent)
                message.retire(self.agent)
            self._recycle(buffer, completion.tenant)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        dst_fn = message.dst or None
        # RBR gave us the buffer; pass ownership along the token chain:
        # RNIC -> engine -> destination function.  The header moves with
        # its buffer — one object rides the request, never copied.
        buffer.transfer(f"rnic:{self.node.name}", self.agent)
        message.transfer(f"rnic:{self.node.name}", self.agent)
        descriptor = BufferDescriptor(
            buffer=buffer, length=completion.length, message=message
        )
        self.stats.tenant_rx[completion.tenant or ""] += 1
        self.stats.rx_bytes += completion.length
        if tel is not None:
            message.trace = span.context
        if dst_fn is None or dst_fn not in self.channel.endpoints:
            # Destination vanished (scale-down race): recycle and drop.
            self.stats.drops["rx"] += 1
            message.retire(self.agent)
            self._recycle(buffer, completion.tenant)
            if tel is not None:
                tel.tracer.end_span(span, status="drop")
            return
        buffer.transfer(self.agent, f"fn:{dst_fn}")
        message.transfer(self.agent, f"fn:{dst_fn}")
        if self.mode == self.MODE_ON_PATH:
            # Data landed in DPU-local memory: it must cross the SoC DMA
            # to the host pool before the function can see it.
            def _staged_deliver():
                yield self.node.soc_dma.transfer(descriptor.length)
                self.channel.dne_send(dst_fn, descriptor)
            self.env.process(_staged_deliver(), name=f"{self.name}-onpath-rx")
        else:
            self.channel.dne_send(dst_fn, descriptor)
        if tel is not None:
            tel.tracer.end_span(span)


class DpuNetworkEngine(NetworkEngine):
    """Palladium's DNE: the engine pinned to a wimpy DPU core."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.node.dpu is None:
            raise ValueError(f"node {self.node.name} has no DPU for a DNE")

    def _allocate_core(self) -> PinnedCore:
        return self.node.dpu.allocate_pinned(f"{self.name}-worker")


class CpuNetworkEngine(NetworkEngine):
    """Palladium-CNE: same engine on a host core, SK_MSG IPC (§4.3).

    The interrupt-driven SK_MSG path adds per-message cost that grows
    with backlog — the receive-livelock effect that lets the DNE pull
    ahead beyond ~20 clients despite its slower core.
    """

    def _allocate_core(self) -> PinnedCore:
        return self.node.cpu.allocate_pinned(f"{self.name}-worker")

    def _interrupt_penalty_us(self) -> float:
        backlog = self.qos_backlog()
        return min(
            2.0, self.cost.cne_concurrency_penalty_us * backlog
        )

    # The SK_MSG interrupt machinery and the livelock penalty are
    # protocol overhead, not descriptor work.  Parts are listed in the
    # order they sum, so the split keeps the engine's timing.
    def _tx_charges(self) -> Tuple[Tuple[str, float], ...]:
        cost = self.cost
        return (
            ("protocol", cost.sk_msg_interrupt_us),
            ("descriptor", self.channel.ingest_cost_us()),
            ("protocol", self._interrupt_penalty_us()),
            ("descriptor", cost.dne_tx_proc_us),
            ("scheduling", cost.dwrr_decision_us),
        )

    def _rx_charges(self) -> Tuple[Tuple[str, float], ...]:
        return (
            ("descriptor", self.cost.dne_rx_proc_us),
            ("protocol", self.cost.sk_msg_us + self._interrupt_penalty_us()),
        )
