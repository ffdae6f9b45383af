"""Memory regions and the RNIC's translation-table (MTT) cache.

Before the RNIC may DMA into a pool, the pool must be registered as a
memory region.  Palladium registers each tenant's unified pool exactly
once, from the DNE, via the cross-processor map (§3.4.2).  Hugepage
backing keeps the number of MTT entries small (§3.4); when the working
set of registered translations exceeds the on-NIC cache, per-op cost
inflates — the same effect that motivates the paper's shadow-QP cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..memory import Buffer, MemoryPool, RemoteMap

__all__ = ["MemoryRegion", "MemoryRegionTable", "RegistrationError"]

#: translations the on-NIC MTT cache holds before per-op cost inflates
MTT_CACHE_ENTRIES = 2048


class RegistrationError(PermissionError):
    """An RNIC operation referenced unregistered memory."""


@dataclass
class MemoryRegion:
    """One registered memory region (a tenant pool or a raw range).

    ``pool`` is None for standalone regions — e.g. the staging image a
    live migration restores into before the instance resumes.
    """

    pool: Optional[MemoryPool]
    tenant: str
    mtt_entries: int
    #: lkey/rkey stand-in
    key: int


class MemoryRegionTable:
    """Registered regions of one RNIC + a simple MTT cache model."""

    def __init__(self):
        self._regions: Dict[int, MemoryRegion] = {}  # pool id -> region
        self._raw_regions: Dict[int, MemoryRegion] = {}  # key -> region
        self._next_key = 1
        self.mtt_cache_entries = MTT_CACHE_ENTRIES
        #: running sum over regions; queried on every RNIC op, so it
        #: must not be recomputed per call
        self._total_mtt = 0

    def register_pool(self, pool: MemoryPool, remote_map: Optional[RemoteMap] = None) -> MemoryRegion:
        """Register ``pool`` (optionally via a cross-processor map).

        When the registration comes from the DPU side — the Palladium
        path — the caller must hold a :class:`~repro.memory.RemoteMap`
        with the RDMA grant, which we verify, reproducing the DOCA
        permission model.
        """
        if remote_map is not None:
            if remote_map.pool is not pool:
                raise RegistrationError("remote map does not describe this pool")
            remote_map.require_rdma()
            remote_map.registered_with_rnic = True
        if id(pool) in self._regions:
            return self._regions[id(pool)]
        region = MemoryRegion(
            pool=pool, tenant=pool.tenant, mtt_entries=pool.mtt_entries,
            key=self._next_key,
        )
        self._next_key += 1
        self._regions[id(pool)] = region
        self._total_mtt += region.mtt_entries
        return region

    def register_region(self, tenant: str, mtt_entries: int) -> MemoryRegion:
        """Register a standalone (pool-less) region.

        Live migration restores the checkpoint image into such a
        region so the RNIC can DMA it; the entries count toward the
        MTT cache like any pool's.  The *time* cost of the ibv_reg_mr
        call is charged by the node's control plane
        (:meth:`repro.rdma.controlplane.RdmaControlPlane.register_region`)
        — never ad-hoc by callers (the dataplane lint enforces this).
        """
        if mtt_entries < 0:
            raise RegistrationError("mtt_entries must be >= 0")
        region = MemoryRegion(pool=None, tenant=tenant,
                              mtt_entries=mtt_entries, key=self._next_key)
        self._next_key += 1
        self._raw_regions[region.key] = region
        self._total_mtt += region.mtt_entries
        return region

    def deregister_region(self, region: MemoryRegion) -> None:
        """Release a standalone region registered via ``register_region``."""
        if self._raw_regions.pop(region.key, None) is not None:
            self._total_mtt -= region.mtt_entries

    def lookup_buffer(self, buffer: Buffer) -> MemoryRegion:
        """Find the region covering ``buffer`` or raise."""
        region = self._regions.get(id(buffer.pool))
        if region is None:
            raise RegistrationError(
                f"buffer {buffer.buffer_id} is not in any registered memory region"
            )
        return region
