"""Global configuration and the calibrated cost model.

The simulated clock runs in **microseconds**.  Every timing constant in
:class:`CostModel` is either taken directly from a number the paper
reports, or fit so that the microbenchmarks of §4.1 reproduce (the
comment on each field cites its anchor).  Experiments must not hard-code
timings — they read them from here, so the calibration is auditable and
an ablation can perturb a single constant.

Hardware defaults mirror the paper's testbed (§4): four nodes, two
40-core CPUs per node, Bluefield-2 DPUs (8 ARM A72 cores @ 2.0 GHz) on
the two worker nodes, ConnectX-6 RNICs, 200 Gbps switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = [
    "CostModel",
    "NodeSpec",
    "ClusterSpec",
    "DEFAULT_COST_MODEL",
    "USEC",
    "MSEC",
    "SEC",
]

#: Unit helpers (the base unit of simulated time is 1 microsecond).
USEC = 1.0
MSEC = 1_000.0
SEC = 1_000_000.0


@dataclass(frozen=True)
class CostModel:
    """Calibrated per-operation costs, in microseconds unless noted."""

    # ----- processors ------------------------------------------------------
    #: Relative cost of executing one unit of work on a DPU ARM core vs a
    #: host x86 core.  The A72 runs at 2.0 GHz vs 3.7 GHz for the host
    #: (§4.3.1); the paper notes the streamlined ISA "compensates
    #: somewhat", so we use less than the raw 1.85 clock ratio.
    dpu_cost_factor: float = 1.6

    # ----- RDMA fabric ------------------------------------------------------
    #: One-way NIC-to-NIC base latency (RNIC pipeline + switch + wire).
    #: Fit so a two-sided DNE-to-DNE echo RTT is 8.4 us at 64 B (Fig. 12).
    rdma_base_latency_us: float = 1.65
    #: RNIC work-request processing (doorbell, WQE fetch, CQE write).
    rnic_op_us: float = 0.3
    #: Switch fabric line rate: 200 Gbps = 25 000 bytes/us (testbed, §4).
    fabric_bytes_per_us: float = 25_000.0
    #: End-host per-byte cost (PCIe DMA in/out, descriptor touch) applied
    #: once per endpoint.  Fit so a 4 KB two-sided echo RTT is 11.6 us
    #: (Fig. 12: +3.2 us RTT over 64 B).
    endhost_per_byte_us: float = 0.00018
    #: RC connection (QP) establishment, "of the order of tens of
    #: milliseconds" (§3.3); we use 20 ms.
    rc_setup_us: float = 20_000.0
    #: Activating a pooled shadow QP (no cross-node sync, §3.3).
    qp_activate_us: float = 1.0
    #: Max active RCQPs per node before RNIC cache thrashing (§3.3);
    #: beyond this, per-op cost inflates by `qp_thrash_penalty`.
    max_active_qps: int = 64
    qp_thrash_penalty: float = 2.0
    #: One-sided RDMA CAS (lock acquire/release primitive) round trip
    #: carries no payload: 2 * (rnic + base).
    #: Extra receiver-side polling interval for one-sided completions
    #: (FaRM-style poll loop, §4.1.2).
    onesided_poll_interval_us: float = 0.5
    #: Per-message overhead of the distributed-lock protocol beyond the
    #: two CAS round trips (queueing on contended lock word, backoff).
    dist_lock_overhead_us: float = 3.5

    # ----- memory / copies ---------------------------------------------------
    #: memcpy throughput with hot caches (OWRC-Best, Fig. 12).
    copy_bytes_per_us_cached: float = 11_000.0
    #: memcpy throughput forced to main memory with TLB flush
    #: (OWRC-Worst, Fig. 12).
    copy_bytes_per_us_cold: float = 7_000.0
    #: Fixed per-copy setup (descriptor bookkeeping, cache line fills).
    copy_base_us: float = 0.25
    copy_base_cold_extra_us: float = 0.3
    #: Pool allocator get/put (rte_mempool-style, §3.4).
    mempool_op_us: float = 0.05
    #: malloc/free pair for the ablation baseline (glibc-style).
    malloc_op_us: float = 0.6

    # ----- DPU data movement (Fig. 3 / Fig. 11) ------------------------------
    #: SoC DMA engine: fixed cost per transfer.  The paper cites 2.6 us
    #: for a 64 B DMA read (§4.1.1, citing [90]).
    soc_dma_base_us: float = 2.2
    #: SoC DMA engine throughput; "unfortunately very slow" (§2.1): the
    #: on-path mode collapses under concurrency (Fig. 11(2)).
    soc_dma_bytes_per_us: float = 3_500.0
    #: RNIC DMA ("runs at line rate", §2.1) needs no extra serialization
    #: beyond `endhost_per_byte_us`.

    # ----- DNE engine (§3.2) --------------------------------------------------
    #: Per-message run-to-completion TX stage on the DNE (routing lookup,
    #: WR build, post) measured in *host-core* microseconds; multiply by
    #: `dpu_cost_factor` when running on DPU cores.
    dne_tx_proc_us: float = 0.55
    #: Per-message RX stage (CQE poll, RBR lookup, descriptor forward).
    dne_rx_proc_us: float = 0.55
    #: DWRR scheduling decision per dequeue (§3.3).
    dwrr_decision_us: float = 0.05

    # ----- cross-processor channels (Fig. 9) -----------------------------------
    #: Kernel TCP descriptor round trip between host function and DPU
    #: (baseline in Fig. 9): ~40 us RTT.
    comch_tcp_rtt_us: float = 40.0
    comch_tcp_cpu_us: float = 8.0
    #: Comch-P (producer/consumer ring, busy polling): >8x lower latency
    #: than TCP (Fig. 9) but one dedicated core per function.
    comch_p_oneway_us: float = 2.2
    comch_p_cpu_us: float = 0.4
    #: Comch-E (event-driven epoll): 2.7-3.8x better than TCP, no
    #: dedicated cores (Fig. 9); chosen by Palladium (§3.5.4).
    comch_e_oneway_us: float = 4.0
    comch_e_cpu_us: float = 0.6
    #: Host-side (function) cost per Comch-E descriptor: a blocking
    #: epoll_wait wakeup + DOCA progress-engine turn.  Fit so the
    #: Comch-E vs TCP RTT ratio lands in the paper's 2.7-3.8x band.
    comch_e_fn_cpu_us: float = 3.0
    #: DPU cores available to Comch-P producer rings (8 ARM cores minus
    #: DNE core(s)); beyond this Comch-P overloads (Fig. 9: ">6").
    comch_p_core_budget: int = 6

    # ----- FUYAO baseline engine (§4.3) -------------------------------------
    #: Per-message TX cost of FUYAO's engine beyond SK_MSG ingest: ring
    #: slot acquisition, one-sided WR construction, doorbell, source
    #: bookkeeping.  Calibrated against Table 2 (FUYAO-F Home Query
    #: 3.53/7.53 ms @ 20/80 clients => ~6-11 K RPS).
    fuyao_tx_us: float = 6.0
    #: Per-message RX cost: amortized ring polling scan, descriptor
    #: construction, credit return (the payload copy is charged
    #: separately via `copy_time`).
    fuyao_rx_us: float = 7.0

    # ----- host IPC (§3.5.3) ----------------------------------------------------
    #: SK_MSG descriptor delivery (sockmap lookup + redirect), kernel
    #: protocol stack bypassed.
    sk_msg_us: float = 1.0
    #: Interrupt-driven delivery overhead per event on the *receiving*
    #: engine core; under high concurrency this throttles the CNE
    #: (§4.3: interrupt processing load, receive livelock effect).
    sk_msg_interrupt_us: float = 2.2
    #: Additional per-message CNE penalty per concurrently active client
    #: connection (interrupt coalescing loss + cache thrash, §4.3).
    cne_concurrency_penalty_us: float = 0.02

    # ----- software network stacks (§3.6, §4.1.3) --------------------------------
    #: Kernel TCP/IP per message processing (syscall, protocol, copy).
    kernel_tcp_us: float = 14.0
    #: Kernel interrupt + softirq overhead per message.
    kernel_irq_us: float = 4.0
    #: F-stack (DPDK userspace) per message processing.
    fstack_us: float = 2.0
    #: HTTP request parse / response serialize (NGINX-grade, per message).
    http_parse_us: float = 1.3
    #: NGINX reverse-proxy bookkeeping per proxied message (upstream
    #: module, connection reuse, buffer juggling) — paid by the
    #: deferred-conversion ingresses but not by Palladium's gateway.
    proxy_overhead_us: float = 4.5
    #: TCP connection establishment (3-way handshake processing).
    tcp_handshake_us: float = 30.0
    #: Client <-> ingress Ethernet one-way wire latency.
    ether_base_latency_us: float = 6.0
    ether_bytes_per_us: float = 25_000.0

    # ----- ingress autoscaler (§3.6) -----------------------------------------------
    ingress_scale_up_threshold: float = 0.60
    ingress_scale_down_threshold: float = 0.30
    #: Worker-process restart causes a brief interruption (Fig. 14 (2)).
    ingress_scale_event_pause_us: float = 300_000.0
    ingress_autoscale_period_us: float = 1_000_000.0

    # ----- multi-gateway ingress tier (repro.ingress.tier, extension) -----------
    #: Per-request cost of a pinned (hot) flow on the DPU fast path:
    #: match-table hit + header rewrite, no gateway core touched.
    tier_fastpath_us: float = 2.0
    #: Per-request cost of a cold/new flow punted to the gateway slow
    #: path: full parse + flow-table entry install.
    tier_slowpath_us: float = 18.0
    #: Failover flow-table state-sync window: entries inherited from a
    #: failed gateway install on the successor only after this long;
    #: lookups inside the window pay the cold-punt cost.
    tier_flow_sync_us: float = 2_000.0

    # ----- live migration (repro.migration) -----------------------------------
    #: Fixed cost of freezing a warm instance and walking its pages into
    #: a checkpoint image (CRIU-style dump, before the DMA of the image
    #: itself, which is charged through `soc_dma_time`).
    checkpoint_base_us: float = 800.0
    #: Fixed cost of rebuilding the address space / runtime state from a
    #: checkpoint image on the target node (CRIU restore, before MR
    #: re-registration and QP activation).
    restore_base_us: float = 1_200.0
    #: Image framing / metadata shipped alongside the checkpointed state.
    migration_frame_bytes: int = 4_096
    #: MR registration: ibv_reg_mr base cost plus per-MTT-entry pinning
    #: and translation upload (Swift, arXiv 2501.19051: registration
    #: cost grows with region size; hugepages keep the entry count low).
    mr_register_base_us: float = 30.0
    mr_register_per_entry_us: float = 1.2
    #: Container cold start (image pull amortized away; process spawn,
    #: runtime init, language warm-up).  What kill-and-cold-start pays
    #: and a live migration avoids.
    cold_start_us: float = 120_000.0

    # ----- serverless platform -------------------------------------------------------
    #: Sidecar cost models (§3.1): classic container sidecar vs
    #: Palladium's consolidated/eBPF sidecars ("as high as 30%" overhead
    #: for the kernel-stack sidecar).
    container_sidecar_us: float = 9.0
    ebpf_sidecar_us: float = 0.7
    shared_sidecar_us: float = 0.5
    #: The cross-security-domain data copy (§3.1) uses
    #: `copy_bytes_per_us_cached`.

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with all per-op CPU costs scaled (for ablations)."""
        return replace(
            self,
            dne_tx_proc_us=self.dne_tx_proc_us * factor,
            dne_rx_proc_us=self.dne_rx_proc_us * factor,
            kernel_tcp_us=self.kernel_tcp_us * factor,
            fstack_us=self.fstack_us * factor,
            http_parse_us=self.http_parse_us * factor,
        )

    # -- derived helpers -------------------------------------------------------
    def wire_time(self, nbytes: int) -> float:
        """Serialization delay of ``nbytes`` on the RDMA fabric."""
        return nbytes / self.fabric_bytes_per_us

    def endhost_time(self, nbytes: int) -> float:
        """Per-endpoint DMA/processing time proportional to size."""
        return nbytes * self.endhost_per_byte_us

    def copy_time(self, nbytes: int, cached: bool = True) -> float:
        """CPU time to memcpy ``nbytes``."""
        if cached:
            return self.copy_base_us + nbytes / self.copy_bytes_per_us_cached
        return (
            self.copy_base_us
            + self.copy_base_cold_extra_us
            + nbytes / self.copy_bytes_per_us_cold
        )

    def soc_dma_time(self, nbytes: int) -> float:
        """SoC DMA engine service time for one transfer."""
        return self.soc_dma_base_us + nbytes / self.soc_dma_bytes_per_us

    def mr_register_time(self, mtt_entries: int) -> float:
        """Control-plane cost of registering a memory region."""
        return (self.mr_register_base_us
                + mtt_entries * self.mr_register_per_entry_us)


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one server node (testbed defaults, §4)."""

    name: str = "node"
    cpu_cores: int = 80  # two 40-core CPUs
    cpu_ghz: float = 3.7
    has_dpu: bool = False
    dpu_cores: int = 8  # Bluefield-2: 8x ARM A72
    dpu_ghz: float = 2.0
    dram_gb: int = 500
    hugepage_bytes: int = 2 * 1024 * 1024  # 2 MB hugepages (§3.4)


@dataclass(frozen=True)
class ClusterSpec:
    """The four-node testbed: two workers (DPU), ingress, client."""

    workers: int = 2
    cost: CostModel = field(default_factory=CostModel)

    def worker_spec(self, index: int) -> NodeSpec:
        return NodeSpec(name=f"worker{index}", has_dpu=True)

    def ingress_spec(self) -> NodeSpec:
        return NodeSpec(name="ingress", has_dpu=False)

    def client_spec(self) -> NodeSpec:
        return NodeSpec(name="client", has_dpu=False)


#: Shared default instance used when an experiment does not override it.
DEFAULT_COST_MODEL = CostModel()


def cost_model_overrides(**kwargs: float) -> CostModel:
    """Convenience: default cost model with selected fields replaced."""
    return replace(DEFAULT_COST_MODEL, **kwargs)


def describe(cost: CostModel) -> Dict[str, float]:
    """Flat dict of the cost model's fields (for experiment reports)."""
    return {name: getattr(cost, name) for name in cost.__dataclass_fields__}
