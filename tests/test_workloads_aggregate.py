"""Flow-aggregate workload frontend: conservation, scale, failover."""

from hypothesis import given, settings, strategies as st

from repro.workloads import (
    ClientClass,
    FlowAggregateModel,
    build_buckets,
    weighted_percentile,
)


def _classes(clients=2_000, rps=2.0):
    return [
        ClientClass("web", "tenant-a", clients=clients, rps_per_client=rps,
                    zipf_s=0.8),
        ClientClass("iot", "tenant-b", clients=clients // 4,
                    rps_per_client=rps, body_bytes=64, zipf_s=0.8),
    ]


# ---------------------------------------------------------------------------
# client classes and buckets
# ---------------------------------------------------------------------------

def test_buckets_partition_the_client_population():
    classes = _classes(clients=10_000)
    buckets = build_buckets(classes)
    per_class = {}
    for b in buckets:
        per_class[b.tenant] = per_class.get(b.tenant, 0) + b.flows
    assert per_class["tenant-a"] == 10_000
    assert per_class["tenant-b"] == 2_500
    # rates split exactly too
    total = sum(b.rate_rps for b in buckets)
    assert abs(total - sum(c.rate_rps for c in classes)) < 1e-6


def test_zipf_skew_makes_the_head_bucket_heaviest():
    cls = ClientClass("c", "t", clients=1_000, rps_per_client=1.0,
                      zipf_s=1.1)
    buckets = build_buckets([cls])
    rates = [b.rate_rps for b in buckets]
    assert rates[0] == max(rates)
    assert rates[0] > 3 * rates[-1]


def test_weighted_percentile_nearest_rank():
    samples = [(0.0, 10.0, 1), (1.0, 20.0, 1), (2.0, 30.0, 2)]
    assert weighted_percentile(samples, 50.0) == 20.0
    assert weighted_percentile(samples, 99.0) == 30.0
    assert weighted_percentile(samples, 99.0, t0=0.5, t1=1.5) == 20.0
    assert weighted_percentile([], 50.0) == 0.0


def _coalesce(samples):
    out = []
    for t, value, weight in samples:
        if out and out[-1][:2] == (t, value):
            out[-1] = (t, value, out[-1][2] + weight)
        else:
            out.append((t, value, weight))
    return out


_TIMES = [0.0, 1_000.0, 2_000.0, 3_000.0]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(_TIMES),
                            st.sampled_from([2.0, 18.0, 1_002.0, 2_018.0]),
                            st.integers(min_value=1, max_value=40),
                            st.integers(min_value=0, max_value=40)),
                  max_size=30),
    p=st.floats(min_value=0.0, max_value=100.0),
    t0=st.sampled_from([None] + _TIMES),
    t1=st.sampled_from([None] + _TIMES + [4_000.0]),
)
def test_property_weighted_percentile_is_exact_under_split_and_merge(
        rows, p, t0, t1):
    """Hypothesis: splitting a sample into same-(time, value) pieces,
    or merging adjacent samples that share (time, value), never moves
    any percentile in any window — so coalescing samples is exact."""
    samples = [(t, value, weight) for t, value, weight, _cut in rows]
    split = []
    for t, value, weight, cut in rows:
        if 0 < cut < weight:
            split += [(t, value, cut), (t, value, weight - cut)]
        else:
            split.append((t, value, weight))
    merged = _coalesce(samples)
    assert _coalesce(split) == merged
    for q in (p, 0.0, 50.0, 99.0, 100.0):
        want = weighted_percentile(samples, q, t0, t1)
        assert weighted_percentile(split, q, t0, t1) == want
        assert weighted_percentile(merged, q, t0, t1) == want


# ---------------------------------------------------------------------------
# the fluid model: determinism, conservation, scale
# ---------------------------------------------------------------------------

def test_model_is_deterministic():
    runs = []
    for _ in range(2):
        m = FlowAggregateModel(_classes(), 4, table_capacity=4_096)
        m.run(100_000.0)
        runs.append((m.admitted, m.completed, m.rejected,
                     m.goodput_rps(50_000, 100_000),
                     m.percentile(99, 50_000)))
    assert runs[0] == runs[1]


def test_model_drives_a_million_modeled_clients():
    classes = [
        ClientClass("web", "t-a", clients=600_000, rps_per_client=2.0,
                    zipf_s=0.8),
        ClientClass("mobile", "t-b", clients=300_000, rps_per_client=2.0,
                    zipf_s=0.8),
        ClientClass("iot", "t-c", clients=100_000, rps_per_client=2.0,
                    zipf_s=0.8),
    ]
    m = FlowAggregateModel(classes, 16)
    assert m.modeled_clients == 1_000_000
    assert m.offered_rps == 2_000_000.0
    m.run(100_000.0)
    assert m.conserved()
    assert m.completed > 0
    # the aggregate frontend keeps state tiny: buckets, not clients
    assert len(m.buckets) < 1_000


def test_latency_samples_grow_with_epochs_not_buckets():
    # 4,000 buckets on an uncongested tier: "web" arrives in every
    # bucket every epoch, and "iot"'s Zipf tail first arrives (cold)
    # spread over the early epochs, beside hot traffic.  Everything is
    # served in the epoch it arrives, so a gateway records at most one
    # sample per path per epoch
    classes = [
        ClientClass("web", "t-a", clients=20_000, rps_per_client=100.0,
                    zipf_s=0.0, buckets=2_000),
        ClientClass("iot", "t-b", clients=20_000, rps_per_client=50.0,
                    zipf_s=1.0, buckets=2_000),
    ]
    m = FlowAggregateModel(classes, 4, fastpath_rps=1e8,
                           slowpath_rps=1e8, max_cold_queue=10_000)
    assert len(m.buckets) == 4_000
    m.run(50_000.0)
    assert m.completed == m.admitted > 50 * 2_000
    assert len(m.samples) <= 2 * len(m.names) * m.epochs
    # coalescing kept each request's own latency: hot hits waited
    # hot_us, cold punts cold_us
    weight = {}
    for _t, latency, count in m.samples:
        weight[latency] = weight.get(latency, 0) + count
    counters = m.tier.counters()
    assert weight == {m.hot_us: counters["flow_table_hits"],
                      m.cold_us: counters["flow_table_punts"]}


def test_goodput_scales_with_gateway_count():
    goodputs = []
    for n in (1, 4, 16):
        m = FlowAggregateModel(_classes(clients=200_000), n,
                               table_capacity=32_768)
        m.run(200_000.0)
        goodputs.append(m.goodput_rps(120_000, 200_000))
    assert goodputs == sorted(goodputs)
    assert goodputs[-1] > goodputs[0]


def test_crash_mid_run_keeps_the_ledger_exact():
    m = FlowAggregateModel(_classes(), 4, table_capacity=4_096)
    m.run(50_000.0, drain=False)
    pre = m.goodput_rps(25_000, 50_000)
    m.run(50_000.0, events=[(50_000.0, "crash", "gw1")], drain=True)
    assert m.conserved()
    assert not m.tier.shards["gw1"].healthy
    assert m.flows_synced > 0
    # no lost requests: everything admitted completed or was rejected
    assert m.admitted == m.completed + m.rejected
    assert m.goodput_rps(60_000, 100_000) > 0.5 * pre


def test_crash_and_recover_restores_the_ring():
    m = FlowAggregateModel(_classes(), 4, table_capacity=4_096)
    m.run(120_000.0,
          events=[(40_000.0, "crash", "gw2"),
                  (80_000.0, "recover", "gw2")],
          drain=True)
    assert m.conserved()
    assert m.tier.shards["gw2"].healthy
    assert "gw2" in m.tier.ring


def test_crash_redirects_backlog_instead_of_losing_it():
    # saturate a tiny tier so queues are non-empty at the crash
    m = FlowAggregateModel(_classes(clients=200_000), 2,
                           table_capacity=65_536,
                           fastpath_rps=50_000.0, slowpath_rps=5_000.0)
    m.run(30_000.0, drain=False)
    assert m.inflight() > 0
    m.run(30_000.0, events=[(30_000.0, "crash", "gw0")], drain=True)
    assert m.redirected > 0
    assert m.conserved()
    assert m.admitted == m.completed + m.rejected


def test_total_outage_rejects_rather_than_loses():
    m = FlowAggregateModel(_classes(), 1, table_capacity=4_096)
    m.run(20_000.0, drain=False)
    m.crash_gateway("gw0")
    m.run(20_000.0, drain=True)
    assert m.conserved()
    assert m.admitted == m.completed + m.rejected


def test_tenant_quota_bounds_flow_table_share():
    m = FlowAggregateModel(_classes(clients=20_000), 2,
                           table_capacity=16_384, tenant_quota=4_096)
    m.run(60_000.0)
    for shard in m.tier.shards.values():
        for tenant in ("tenant-a", "tenant-b"):
            assert shard.table.tenant_occupancy(tenant) <= 4_096
    assert m.conserved()


# ---------------------------------------------------------------------------
# hypothesis: exact conservation through crash/recover schedules
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    gateways=st.integers(min_value=1, max_value=6),
    clients=st.integers(min_value=100, max_value=50_000),
    crash_at=st.integers(min_value=5, max_value=45),
    crash_idx=st.integers(min_value=0, max_value=5),
    recover=st.booleans(),
)
def test_property_every_admitted_request_accounted_exactly_once(
        gateways, clients, crash_at, crash_idx, recover):
    """Hypothesis: admitted == completed + rejected (+ 0 lost) after
    drain, through an arbitrary crash (and optional recovery)."""
    classes = [ClientClass("c", "t", clients=clients, rps_per_client=5.0,
                           zipf_s=0.8)]
    m = FlowAggregateModel(classes, gateways, table_capacity=8_192,
                           max_queue=500, max_cold_queue=100)
    events = []
    if gateways > 1:
        victim = f"gw{crash_idx % gateways}"
        events.append((float(crash_at * 1_000), "crash", victim))
        if recover:
            events.append((float((crash_at + 10) * 1_000),
                           "recover", victim))
    m.run(60_000.0, events=events, drain=True)
    assert m.inflight() == 0
    assert m.conserved()
    assert m.admitted == m.completed + m.rejected
    assert m.admitted >= 0 and m.completed >= 0 and m.rejected >= 0
    # the latency samples carry every completion exactly once, in time
    # order, with each run of equal (time, latency) coalesced
    assert sum(count for _t, _lat, count in m.samples) == m.completed
    times = [t for t, _lat, _count in m.samples]
    assert times == sorted(times)
    assert all(a[:2] != b[:2] for a, b in zip(m.samples, m.samples[1:]))
