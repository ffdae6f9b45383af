"""The hierarchical ingress tier: ring, flow tables, failover, metrics."""

from hypothesis import given, settings, strategies as st

from repro.ingress import (
    ConsistentHashRing,
    FlowTable,
    GatewayTier,
)


def _resident(table):
    return {flow_id for flow_id, _tenant, _size in table.snapshot()}


def _occupied(table, tenant=None):
    return sum(size for _flow_id, owner, size in table.snapshot()
               if tenant is None or owner == tenant)


# ---------------------------------------------------------------------------
# consistent-hash ring
# ---------------------------------------------------------------------------

def test_ring_lookup_is_deterministic():
    a = ConsistentHashRing()
    b = ConsistentHashRing()
    for ring in (a, b):
        for i in range(8):
            ring.add(f"gw{i}")
    assert [a.lookup(k) for k in range(500)] == \
           [b.lookup(k) for k in range(500)]


def test_ring_spreads_load_roughly_evenly():
    ring = ConsistentHashRing(vnodes=64)
    for i in range(8):
        ring.add(f"gw{i}")
    counts = {}
    for key in range(8_000):
        counts[ring.lookup(key)] = counts.get(ring.lookup(key), 0) + 1
    assert len(counts) == 8
    # all gateways within a loose factor of the fair share
    fair = 8_000 / 8
    assert all(0.4 * fair < c < 2.0 * fair for c in counts.values())


def test_ring_removal_only_remaps_the_lost_gateways_flows():
    ring = ConsistentHashRing()
    for i in range(6):
        ring.add(f"gw{i}")
    before = {key: ring.lookup(key) for key in range(2_000)}
    ring.remove("gw3")
    for key, owner in before.items():
        if owner == "gw3":
            assert ring.lookup(key) != "gw3"
        else:
            assert ring.lookup(key) == owner


@settings(max_examples=50, deadline=None)
@given(
    gateways=st.integers(min_value=2, max_value=12),
    victim=st.integers(min_value=0, max_value=11),
    keys=st.lists(st.integers(min_value=0, max_value=10**9),
                  min_size=1, max_size=200),
)
def test_property_respray_moves_only_failed_gateways_flows(
        gateways, victim, keys):
    """Hypothesis: losing one gateway remaps exactly its own flows."""
    victim %= gateways
    name = f"gw{victim}"
    ring = ConsistentHashRing(vnodes=16)
    for i in range(gateways):
        ring.add(f"gw{i}")
    before = {key: ring.lookup(key) for key in keys}
    ring.remove(name)
    for key, owner in before.items():
        after = ring.lookup(key)
        if owner == name:
            assert after != name
        else:
            assert after == owner


# ---------------------------------------------------------------------------
# flow table
# ---------------------------------------------------------------------------

def test_flow_table_hit_after_install_punt_before():
    table = FlowTable(capacity=4)
    assert not table.lookup("f1")          # cold punt
    assert table.install("f1", "t1")
    assert table.lookup("f1")              # hot hit
    assert table.hits == 1 and table.punts == 1


def test_flow_table_lru_eviction_at_capacity():
    table = FlowTable(capacity=2)
    table.install("a", "t1")
    table.install("b", "t1")
    table.install("c", "t1")               # evicts "a" (LRU, no hits)
    assert _resident(table) == {"b", "c"}
    assert table.evictions == 1
    assert _occupied(table) == 2


def test_flow_table_clock_second_chance_protects_hot_entries():
    table = FlowTable(capacity=2)
    table.install("hot", "t1")
    table.install("cold", "t1")
    table.lookup("hot")                    # reference the hot entry
    table.lookup("cold")
    table.lookup("hot")                    # hot is MRU *and* referenced
    table.install("new", "t1")
    # the referenced hot entry got its second chance; a decayed one went
    assert _resident(table) == {"hot", "new"}


def test_flow_table_tenant_quota_rejects_not_evicts():
    table = FlowTable(capacity=10, tenant_quota=2)
    assert table.install("a", "t1")
    assert table.install("b", "t1")
    assert not table.install("c", "t1")    # t1 at quota -> stays cold
    assert table.install("d", "t2")        # other tenants unaffected
    assert table.quota_rejections == 1
    assert _occupied(table, "t1") == 2


def test_flow_table_counts_flows_not_entries():
    table = FlowTable(capacity=5_000)
    assert table.install("bucket", "t1", size=4_000)
    assert _occupied(table) == 4_000
    # a second large bucket cannot coexist: the first is evicted to
    # make room (capacity is flow slots, not entry count)
    assert table.install("bucket2", "t1", size=2_000)
    assert _resident(table) == {"bucket2"}
    assert _occupied(table) == 2_000
    # an entry larger than the whole table is refused outright
    assert not table.install("oversized", "t1", size=9_000)


def test_flow_table_snapshot_is_lru_first():
    table = FlowTable(capacity=4)
    for fid in ("a", "b", "c"):
        table.install(fid, "t1")
    table.lookup("a")                      # refresh "a" -> MRU
    assert [fid for fid, _, _ in table.snapshot()] == ["b", "c", "a"]


# ---------------------------------------------------------------------------
# gateway tier failover
# ---------------------------------------------------------------------------

def _warm_tier(n=4, flows=200, **kwargs):
    tier = GatewayTier([f"gw{i}" for i in range(n)], **kwargs)
    for key in range(flows):
        shard = tier.shards[tier.ring.lookup(key)]
        tier.classify(shard, key, "t1", now=0.0)   # punt + install
        tier.classify(shard, key, "t1", now=0.0)   # hit
    return tier


def test_tier_failover_ships_state_to_ring_successors():
    tier = _warm_tier()
    dead = "gw1"
    owned = [k for k in range(200)
             if tier.shards[tier.ring.lookup(k)].name == dead]
    assert owned
    moved = tier.fail_gateway(dead, now=100.0)
    assert sum(moved.values()) == len(tier.shards[dead].table.snapshot()) \
        or sum(moved.values()) > 0
    assert not tier.shards[dead].healthy
    # the dead shard's flows now assign to live successors
    for key in owned:
        assert tier.shards[tier.ring.lookup(key)].name != dead


def test_tier_synced_flows_punt_cold_during_sync_window():
    tier = _warm_tier(sync_us=2_000.0)
    dead = "gw1"
    key = next(k for k in range(200)
               if tier.shards[tier.ring.lookup(k)].name == dead)
    tier.fail_gateway(dead, now=100.0)
    heir = tier.shards[tier.ring.lookup(key)]
    # inside the sync window the inherited entry is not yet installed
    assert not tier.classify(heir, key, "t1", now=500.0)
    # after the window the pending entries absorb and the flow is hot
    tier.classify(heir, key, "t1", now=2_200.0)
    assert tier.classify(heir, key, "t1", now=2_300.0)


def test_tier_recover_rejoins_with_empty_table():
    tier = _warm_tier()
    tier.fail_gateway("gw2", now=10.0)
    tier.recover_gateway("gw2")
    assert tier.shards["gw2"].healthy
    assert tier.shards["gw2"].table.snapshot() == []
    assert "gw2" in tier.ring
