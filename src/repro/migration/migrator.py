"""Live migration of a warm function instance (checkpoint/restore).

The CRIU-behind-a-reroutable-load-balancer pattern, rebuilt on
Palladium's control plane: freeze the instance, checkpoint its state
(plus every request parked in its queues) into an image, ship the
image over the RDMA fabric, restore on the target node — re-register
the staging memory region with the target RNIC (MTT cost included) and
promote pooled shadow QPs so traffic can flow immediately — then flip
routes atomically through the :class:`~repro.platform.Coordinator` and
thaw.  Swift (arXiv 2501.19051) observes that QP setup and MR
registration dominate RDMA elasticity events; reusing the shadow pool
and paying only registration keeps the blackout in the low
milliseconds, far under a container cold start.

Message accounting uses the dataplane's single-owner protocol
throughout: the migrator *takes ownership* of every drained message
(``transfer``), carries its payload in the checkpoint image, and hands
ownership back on redelivery — any slip (loss, double-retire) raises
``OwnershipViolation``.  Stragglers that arrive at the old node after
the flip land in a forwarder endpoint bound under the function's id
and are redirected to the new node with full copy + wire cost.

The subsystem is strictly opt-in: nothing here runs unless a migration
is requested, so platforms that never migrate are byte-for-byte
identical to the pre-migration simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..memory import BufferDescriptor
from ..sim import Store

__all__ = ["LiveMigrator", "MigrationRecord", "DEFAULT_STATE_BYTES"]

#: default checkpoint image size: a small warm runtime (64 KB of live
#: heap/registers; experiments sweep this up to tens of MB)
DEFAULT_STATE_BYTES = 64 * 1024


@dataclass
class MigrationRecord:
    """What one migration attempt did (returned by ``migrate``)."""

    fn_id: str
    src: str
    dst: str
    state_bytes: int
    ok: bool = False
    reason: str = ""
    #: freeze instant and thaw instant; their gap is the blackout
    t_freeze_us: float = 0.0
    t_thaw_us: float = 0.0
    downtime_us: float = 0.0
    #: checkpoint image + parked payloads + framing, over the fabric
    bytes_copied: int = 0
    #: messages carried in the checkpoint image (drained pre-copy)
    messages_checkpointed: int = 0
    #: total messages redirected to the new node: checkpointed cargo,
    #: blackout arrivals, and post-flip stragglers (forwarder keeps
    #: incrementing this after the record is returned)
    messages_redirected: int = 0
    #: MTT entries registered for the staging region on the target
    mtt_entries: int = 0
    #: shadow QPs promoted to ACTIVE during restore
    qps_activated: int = 0


class LiveMigrator:
    """Performs live migrations on one :class:`ServerlessPlatform`.

    Duck-typed against the platform (functions, runtimes, engines,
    coordinator, cluster, cost, ``make_iolib``) so the package has no
    import cycle with :mod:`repro.platform`.
    """

    def __init__(self, platform):
        self.platform = platform
        self.env = platform.env
        self.records: List[MigrationRecord] = []
        self.migrations = 0
        self.aborts = 0
        if self.env.telemetry is not None:
            collect, records = self.env.telemetry.metrics.collect, self.records
            collect("migrations_total", "Live migration attempts by outcome.",
                    ("outcome",), lambda: {"ok": self.migrations,
                                           "quiesce-timeout": self.aborts})
            collect("migration_bytes_copied", "Checkpoint image bytes moved over "
                    "the fabric.", ("fn",),
                    lambda: ((r.fn_id, r.bytes_copied) for r in records if r.ok))
            collect("migration_messages_redirected", "In-flight messages handed "
                    "over to a migrated instance.", ("fn",),
                    lambda: ((r.fn_id, r.messages_redirected) for r in records))

    # -- the tentpole --------------------------------------------------------
    def migrate(self, fn_id: str, dst_node: str,
                state_bytes: int = DEFAULT_STATE_BYTES,
                quiesce_timeout_us: Optional[float] = None):
        """Generator: live-migrate ``fn_id`` to ``dst_node``.

        Phases: freeze+quiesce -> checkpoint -> copy -> restore ->
        flip+thaw.  With ``quiesce_timeout_us`` the freeze is abandoned
        (instance thawed in place, parked requests re-queued) when the
        instance cannot quiesce in time — the drain-deadline fallback.
        Returns a :class:`MigrationRecord`.
        """
        plat = self.platform
        env = self.env
        instance = plat.functions[fn_id]
        src_node = plat.coordinator.node_of(fn_id)
        if src_node == dst_node:
            raise ValueError(f"{fn_id!r} is already on {dst_node!r}")
        src_runtime = plat.runtimes[src_node]
        dst_runtime = plat.runtimes[dst_node]
        if not dst_runtime.alive:
            raise RuntimeError(f"migration target {dst_node!r} is down")
        tenant = instance.spec.tenant
        agent = f"migrator:{fn_id}"
        cost = plat.cost
        record = MigrationRecord(fn_id=fn_id, src=src_node, dst=dst_node,
                                 state_bytes=state_bytes)
        self.records.append(record)
        tel = env.telemetry
        root = None
        if tel is not None:
            root = tel.tracer.start_span(
                "migrate", category="migration", node=src_node,
                actor=fn_id, dst=dst_node, state_bytes=state_bytes)

        # -- phase 1: freeze + quiesce ----------------------------------
        instance.freeze()
        record.t_freeze_us = env.now
        quiesce = env.process(instance.wait_quiesced(),
                              name=f"quiesce:{fn_id}")
        if quiesce_timeout_us is None:
            yield quiesce
        else:
            yield from env.within(quiesce, quiesce_timeout_us)
            if not quiesce.triggered:
                # Could not drain in-flight handlers in time: abort in
                # place; the caller falls back to crash semantics.
                instance.thaw(requeue=True)
                yield quiesce
                self.aborts += 1
                record.reason = "quiesce-timeout"
                self._finish(tel, root, record, status="abort")
                return record

        # -- phase 2: checkpoint ----------------------------------------
        span = self._child(tel, root, "migrate.checkpoint", src_node, fn_id)
        cargo: List[Tuple[Any, Any, int]] = []
        cargo_bytes = 0
        for descriptor in instance.drain_queued():
            message = descriptor.message
            buffer = descriptor.buffer
            message.transfer(instance.agent, agent)
            buffer.transfer(instance.agent, agent)
            payload = buffer.read(agent)
            buffer.pool.put(buffer, agent)
            cargo.append((message, payload, descriptor.length))
            cargo_bytes += descriptor.length
        record.messages_checkpointed = len(cargo)
        # CRIU-style dump: page walk + packing the parked payloads ...
        yield src_runtime.node.cpu.run(
            ("copy", cost.checkpoint_base_us + cost.copy_time(cargo_bytes)))
        # ... then the image itself moves through the SoC DMA engine.
        if src_runtime.node.soc_dma is not None:
            yield src_runtime.node.soc_dma.transfer(state_bytes)
        else:
            yield src_runtime.node.cpu.run(
                ("copy", cost.copy_time(state_bytes, cached=False)))
        self._end(tel, span)

        # -- phase 3: copy over the fabric ------------------------------
        span = self._child(tel, root, "migrate.copy", src_node, fn_id)
        image_bytes = state_bytes + cargo_bytes + cost.migration_frame_bytes
        link = plat.cluster.fabric_link(src_node, dst_node)
        yield from link.transmit(image_bytes)
        record.bytes_copied = image_bytes
        self._end(tel, span)

        # -- phase 4: restore on the target -----------------------------
        span = self._child(tel, root, "migrate.restore", dst_node, fn_id)
        yield dst_runtime.node.cpu.run(("copy", cost.restore_base_us))
        if dst_runtime.node.soc_dma is not None:
            yield dst_runtime.node.soc_dma.transfer(state_bytes)
        dst_engine = dst_runtime.engine
        if dst_engine is not None:
            # Re-register the staging image with the target RNIC via
            # the node's control plane: the MTT entry count (hugepage-
            # backed) drives the cost, the charge lands on the target
            # host CPU, and the entries count toward the MTT cache
            # like any pool's.
            cp = plat.fabric.control_plane(dst_node)
            region = yield from cp.register_region(
                tenant, state_bytes, cpu=dst_runtime.node.cpu,
                page_bytes=dst_runtime.node.spec.hugepage_bytes)
            record.mtt_entries = region.mtt_entries
            # Promote pooled shadow QPs toward every live peer so the
            # instance's traffic flows the moment routes flip (§3.3:
            # activation is local and cheap; the pool spares us the RC
            # handshake a cold start would pay).
            before = dst_engine.conn_mgr.active_count()
            for peer_name in sorted(plat.engines):
                if peer_name == dst_node:
                    continue
                if not plat.runtimes[peer_name].alive:
                    continue
                yield from dst_engine.conn_mgr.ensure_active(peer_name, tenant)
            if "ingress" in plat.fabric.nodes:
                yield from dst_engine.conn_mgr.ensure_active("ingress", tenant)
            record.qps_activated = dst_engine.conn_mgr.active_count() - before
            # The image is materialized into the tenant pool's arena
            # once the instance resumes; release the staging region so
            # repeated migrations do not accrete MTT state.
            cp.deregister_region(region)
        self._end(tel, span)

        # -- phase 5: the flip (atomic — no simulated time passes) ------
        span = self._child(tel, root, "migrate.flip", dst_node, fn_id)
        # Final drain: requests that arrived during the blackout.
        stragglers = instance.drain_queued()
        # The forwarder store takes over the old node's endpoint
        # bindings under the function's id, so deliveries already past
        # their route lookup are captured, not dropped.
        fwd_store = Store(env, name=f"fwd:{fn_id}@{src_node}")
        src_runtime.unregister_endpoint(fn_id, forward_inbox=fwd_store)
        plat.coordinator.function_migrated(fn_id, dst_node)
        instance.rebind(plat.make_iolib(fn_id, tenant, dst_node))
        dst_runtime.register_endpoint(fn_id, instance.inbox, tenant=tenant)
        for descriptor in stragglers:
            fwd_store.put_nowait(descriptor)
        env.process(
            self._forward_loop(record, instance, fwd_store, src_runtime,
                               dst_runtime, agent),
            name=f"migrate-fwd:{fn_id}")
        instance.thaw()
        record.t_thaw_us = env.now
        record.downtime_us = record.t_thaw_us - record.t_freeze_us
        record.ok = True
        self.migrations += 1
        self._end(tel, span)

        # Checkpointed cargo rode the image: redeliver it into the
        # (now live) inbox on the target, paying only local delivery.
        if cargo:
            env.process(self._redeliver(record, instance, cargo, dst_runtime,
                                        agent),
                        name=f"migrate-cargo:{fn_id}")
        self._finish(tel, root, record)
        return record

    # -- redelivery paths ----------------------------------------------------
    def _redeliver(self, record: MigrationRecord, instance, cargo,
                   dst_runtime, agent: str):
        """Generator: hand checkpointed messages back to the instance.

        Their payloads arrived inside the image (already charged to the
        copy phase); each redelivery pays a pool get + local copy on
        the target, then ownership goes back to the function.
        """
        cost = self.platform.cost
        pool = dst_runtime.pool_for(instance.spec.tenant)
        for message, payload, length in cargo:
            buffer = yield from pool.get_wait(agent)
            yield dst_runtime.node.cpu.run(
                ("descriptor", cost.mempool_op_us),
                ("copy", cost.copy_time(length)))
            buffer.write(agent, payload, length)
            message.transfer(agent, instance.agent)
            buffer.transfer(agent, instance.agent)
            instance.inbox.put_nowait(BufferDescriptor(
                buffer=buffer, length=length, message=message))
            record.messages_redirected += 1

    def _forward_loop(self, record: MigrationRecord, instance, fwd_store,
                      src_runtime, dst_runtime, agent: str):
        """Generator: redirect stragglers from the old node to the new.

        Serves the final-drain blackout arrivals and anything that
        lands at the old endpoint after the flip (deliveries that had
        already passed their route lookup).  Each redirect pays the
        full price: copy out on the source, a fabric hop, copy in on
        the target.
        """
        plat = self.platform
        cost = plat.cost
        link = plat.cluster.fabric_link(src_runtime.node.name,
                                        dst_runtime.node.name)
        pool = dst_runtime.pool_for(instance.spec.tenant)
        while True:
            descriptor = yield fwd_store.get()
            message = descriptor.message
            buffer = descriptor.buffer
            length = descriptor.length
            message.transfer(instance.agent, agent)
            buffer.transfer(instance.agent, agent)
            payload = buffer.read(agent)
            buffer.pool.put(buffer, agent)
            yield src_runtime.node.cpu.run(("copy", cost.copy_time(length)))
            yield from link.transmit(length + cost.migration_frame_bytes)
            dst_buffer = yield from pool.get_wait(agent)
            yield dst_runtime.node.cpu.run(
                ("descriptor", cost.mempool_op_us),
                ("copy", cost.copy_time(length)))
            dst_buffer.write(agent, payload, length)
            message.transfer(agent, instance.agent)
            dst_buffer.transfer(agent, instance.agent)
            instance.inbox.put_nowait(BufferDescriptor(
                buffer=dst_buffer, length=length, message=message))
            record.messages_redirected += 1

    # -- telemetry plumbing --------------------------------------------------
    def _child(self, tel, root, name: str, node: str, actor: str):
        if tel is None:
            return None
        return tel.tracer.start_span(name, parent=root, category="migration",
                                     node=node, actor=actor)

    def _end(self, tel, span, status: str = "ok") -> None:
        if tel is not None and span is not None:
            tel.tracer.end_span(span, status=status)

    def _finish(self, tel, root, record: MigrationRecord,
                status: str = "ok") -> None:
        if tel is None:
            return
        self._end(tel, root, status=status)
        if record.ok:
            tel.metrics.histogram(
                "migration_downtime_us", "Freeze-to-thaw blackout per "
                "migration.", labels=("fn",)).labels(
                    record.fn_id).observe(record.downtime_us)
