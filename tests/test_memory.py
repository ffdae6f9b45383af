"""Tests for the memory subsystem: buffers, pools, isolation, crossmap."""

import pytest

from repro.dataplane import Message
from repro.memory import (
    Buffer,
    BufferDescriptor,
    BufferState,
    CrossProcessorExporter,
    DESCRIPTOR_BYTES,
    IsolationError,
    MappingError,
    MemoryPool,
    OwnershipError,
    PoolExhausted,
    TenantMemoryRegistry,
    create_from_export,
)
from repro.sim import Environment


# ---------------------------------------------------------------------------
# Buffer ownership (the token-passing invariant, §3.5.1)
# ---------------------------------------------------------------------------

def test_owner_can_write_and_read():
    buf = Buffer(1024)
    buf.owner = "fn:a"
    buf.write("fn:a", "payload", 7)
    assert buf.read("fn:a") == "payload"
    assert buf.length == 7


def test_non_owner_read_rejected():
    buf = Buffer(1024)
    buf.owner = "fn:a"
    with pytest.raises(OwnershipError):
        buf.read("fn:b")


def test_non_owner_write_rejected():
    buf = Buffer(1024)
    buf.owner = "fn:a"
    with pytest.raises(OwnershipError):
        buf.write("fn:b", "x", 1)


def test_transfer_moves_ownership():
    buf = Buffer(64)
    buf.owner = "fn:a"
    buf.transfer("fn:a", "dne:w0")
    with pytest.raises(OwnershipError):
        buf.read("fn:a")
    buf.write("dne:w0", "ok", 2)


def test_transfer_by_non_owner_rejected():
    buf = Buffer(64)
    buf.owner = "fn:a"
    with pytest.raises(OwnershipError):
        buf.transfer("fn:b", "fn:c")


def test_write_beyond_capacity_rejected():
    buf = Buffer(16)
    buf.owner = "a"
    with pytest.raises(ValueError):
        buf.write("a", "x", 17)
    with pytest.raises(ValueError):
        buf.write("a", "x", -1)


def test_descriptor_wire_size():
    buf = Buffer(64)
    buf.owner = "a"
    buf.write("a", "p", 4)
    desc = BufferDescriptor(buffer=buf, length=buf.length,
                            message=Message(dst="b"))
    assert desc.wire_bytes == DESCRIPTOR_BYTES
    assert desc.length == 4
    assert desc.message.dst == "b"


def test_descriptor_derive_overrides():
    desc = BufferDescriptor(buffer=Buffer(8), length=1,
                            message=Message(src="a"))
    derived = desc.derive(dst="b")
    assert derived.message.src == "a" and derived.message.dst == "b"
    assert desc.message.dst == ""
    assert derived.message is not desc.message
    assert derived.buffer is desc.buffer


# ---------------------------------------------------------------------------
# MemoryPool
# ---------------------------------------------------------------------------

def _pool(count=4, size=1024):
    return MemoryPool(Environment(), "t", count, size)


def test_pool_validation():
    env = Environment()
    with pytest.raises(ValueError):
        MemoryPool(env, "t", 0, 8)
    with pytest.raises(ValueError):
        MemoryPool(env, "t", 8, 0)


def test_pool_get_assigns_ownership():
    pool = _pool()
    buf = pool.get("fn:a")
    assert buf.owner == "fn:a"
    assert buf.state == BufferState.IN_USE
    assert pool.free_count == 3


def test_pool_exhaustion_raises():
    pool = _pool(count=2)
    pool.get("a")
    pool.get("a")
    with pytest.raises(PoolExhausted):
        pool.get("a")


def test_pool_put_recycles():
    pool = _pool(count=1)
    buf = pool.get("a")
    pool.put(buf, "a")
    assert pool.free_count == 1
    again = pool.get("b")
    assert again is buf
    assert again.payload is None


def test_pool_put_by_non_owner_rejected():
    pool = _pool()
    buf = pool.get("a")
    with pytest.raises(OwnershipError):
        pool.put(buf, "b")


def test_pool_double_free_rejected():
    pool = _pool()
    buf = pool.get("a")
    pool.put(buf, "a")
    buf.owner = "a"  # forge ownership; state check must still catch it
    with pytest.raises(OwnershipError):
        pool.put(buf, "a")


def test_pool_put_foreign_buffer_rejected():
    pool_a = _pool()
    env = Environment()
    pool_b = MemoryPool(env, "t", 2, 64)
    foreign = pool_b.get("a")
    with pytest.raises(OwnershipError):
        pool_a.put(foreign, "a")


def test_pool_get_wait_blocks_until_put():
    env = Environment()
    pool = MemoryPool(env, "t", 1, 64)
    first = pool.get("a")
    got = []

    def waiter():
        buf = yield from pool.get_wait("b")
        got.append((env.now, buf.owner))

    def releaser():
        yield env.timeout(5)
        pool.put(first, "a")

    env.process(waiter())
    env.process(releaser())
    env.run()
    assert got == [(5.0, "b")]


def test_pool_hugepage_accounting():
    env = Environment()
    pool = MemoryPool(env, "t", 1024, 8192)  # 8 MB => 4 hugepages
    assert pool.hugepages == 4
    assert pool.mtt_entries == 4


def test_pool_counters():
    pool = _pool()
    buf = pool.get("a")
    pool.put(buf, "a")
    assert pool.gets == 1
    assert pool.puts == 1


# ---------------------------------------------------------------------------
# Tenant isolation (file prefixes, §3.4.1)
# ---------------------------------------------------------------------------

def test_registry_create_and_attach():
    reg = TenantMemoryRegistry(Environment())
    agent = reg.create_tenant_pool("t1", 8, 512)
    pool = reg.attach(agent.file_prefix, "t1")
    assert pool is agent.pool


def test_cross_tenant_attach_denied():
    reg = TenantMemoryRegistry(Environment())
    agent = reg.create_tenant_pool("t1", 8, 512)
    with pytest.raises(IsolationError):
        reg.attach(agent.file_prefix, "t2")


def test_unknown_prefix_rejected():
    reg = TenantMemoryRegistry(Environment())
    with pytest.raises(KeyError):
        reg.attach("nope", "t1")


def test_duplicate_prefix_rejected():
    reg = TenantMemoryRegistry(Environment())
    reg.create_tenant_pool("t1", 4, 64, file_prefix="p")
    with pytest.raises(ValueError):
        reg.create_tenant_pool("t2", 4, 64, file_prefix="p")


def test_duplicate_tenant_rejected():
    reg = TenantMemoryRegistry(Environment())
    reg.create_tenant_pool("t1", 4, 64)
    with pytest.raises(ValueError):
        reg.create_tenant_pool("t1", 4, 64, file_prefix="other")


def test_pool_lookup_by_tenant():
    reg = TenantMemoryRegistry(Environment())
    agent = reg.create_tenant_pool("t1", 4, 64)
    assert reg.pool_for("t1") is agent.pool
    assert reg.agent_for("t1") is agent
    assert reg.tenants == ["t1"]
    with pytest.raises(KeyError):
        reg.pool_for("t2")


def test_export_descriptor_contents():
    reg = TenantMemoryRegistry(Environment())
    agent = reg.create_tenant_pool("t1", 4, 2048)
    desc = agent.export_descriptor()
    assert desc["tenant"] == "t1"
    assert desc["buffer_bytes"] == 2048
    assert desc["buffer_count"] == 4


# ---------------------------------------------------------------------------
# Cross-processor shared memory (DOCA mmap, §3.4.2)
# ---------------------------------------------------------------------------

def _exported_pool(*grants):
    pool = MemoryPool(Environment(), "t", 4, 512)
    exporter = CrossProcessorExporter(pool)
    for grant in grants:
        getattr(exporter, f"export_{grant}")()
    return pool, exporter


def test_export_requires_grant():
    _, exporter = _exported_pool()
    with pytest.raises(MappingError):
        exporter.descriptor()


def test_remote_map_grants_enforced():
    pool, exporter = _exported_pool("pci")
    remote = create_from_export(exporter.descriptor())
    assert remote.descriptor.grants == {CrossProcessorExporter.GRANT_PCI}
    with pytest.raises(MappingError):
        remote.require_rdma()


def test_full_export_flow():
    pool, exporter = _exported_pool("pci", "rdma")
    remote = create_from_export(exporter.descriptor())
    remote.require_rdma()
    assert remote.pool is pool
    assert remote.descriptor.tenant == "t"
