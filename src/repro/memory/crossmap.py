"""Cross-processor (CPU <-> DPU) shared memory, DOCA-mmap style (§3.4.2).

The trick that makes Palladium's off-path mode work: the host's unified
memory pool is *exported* to the DPU so the DNE can (a) register it
with the integrated RNIC and (b) name host buffers in work requests —
all without the data ever moving through the DPU's own memory.

The real control flow is reproduced one-to-one:

1. The host shared-memory agent calls :meth:`CrossProcessorExporter.export_pci`
   (grant DPU ARM-core access) and :meth:`CrossProcessorExporter.export_rdma`
   (grant RNIC access), producing an opaque export descriptor.
2. The descriptor travels to the DNE over the Comch control channel.
3. The DNE calls :func:`create_from_export`, obtaining a
   :class:`RemoteMap` through which it may operate on host buffers.

A :class:`RemoteMap` is a *capability*: DNE-side code must present it
to post host buffers to the RNIC.  Missing grants raise
:class:`MappingError`, mirroring a DOCA permission failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Set

from .mempool import MemoryPool

__all__ = [
    "CrossProcessorExporter",
    "ExportDescriptor",
    "MappingError",
    "RemoteMap",
    "create_from_export",
]

_export_ids = itertools.count(1)


class MappingError(PermissionError):
    """A cross-processor mapping was used without the required grant."""


@dataclass(frozen=True)
class ExportDescriptor:
    """Opaque token describing an exported host memory range."""

    export_id: int
    tenant: str
    pool: MemoryPool
    grants: frozenset


class CrossProcessorExporter:
    """Host-side exporter for one tenant's unified memory pool."""

    GRANT_PCI = "pci"  # DPU ARM cores may address the range
    GRANT_RDMA = "rdma"  # the integrated RNIC may DMA to/from the range

    def __init__(self, pool: MemoryPool):
        self.pool = pool
        self._grants: Set[str] = set()

    def export_pci(self) -> "CrossProcessorExporter":
        """doca_mmap_export_pci(): allow DPU core access."""
        self._grants.add(self.GRANT_PCI)
        return self

    def export_rdma(self) -> "CrossProcessorExporter":
        """doca_mmap_export_rdma(): allow RNIC access."""
        self._grants.add(self.GRANT_RDMA)
        return self

    def descriptor(self) -> ExportDescriptor:
        """Produce the export descriptor sent to the DNE over Comch."""
        if not self._grants:
            raise MappingError("export descriptor requested before any export_*()")
        return ExportDescriptor(
            export_id=next(_export_ids),
            tenant=self.pool.tenant,
            pool=self.pool,
            grants=frozenset(self._grants),
        )


@dataclass
class RemoteMap:
    """DPU-side handle onto an exported host pool (doca_mmap import)."""

    descriptor: ExportDescriptor
    registered_with_rnic: bool = field(default=False)

    @property
    def pool(self) -> MemoryPool:
        return self.descriptor.pool

    def require_rdma(self) -> None:
        """Assert the RNIC was granted access."""
        if CrossProcessorExporter.GRANT_RDMA not in self.descriptor.grants:
            raise MappingError(
                f"pool {self.pool.name}: no RDMA grant for RNIC access"
            )


def create_from_export(descriptor: ExportDescriptor) -> RemoteMap:
    """doca_mmap_create_from_export(): DNE-side import of a host pool."""
    return RemoteMap(descriptor=descriptor)
