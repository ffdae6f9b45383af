"""Flow-aggregate workload frontend: conservation, scale, failover,
and exact equivalence with a straightforward oracle epoch loop."""

import json
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.ingress.tier import FlowTable, GatewayTier, _FlowEntry
from repro.workloads import (
    ClientClass,
    FlowAggregateModel,
    build_buckets,
    weighted_percentile,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import gate  # noqa: E402


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
            assert shard.table._per_tenant.get(tenant, 0) <= 4_096
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


# ---------------------------------------------------------------------------
# oracle: the straightforward epoch loop the model must match exactly
# ---------------------------------------------------------------------------
#
# The model's epoch loop queues plain lists, keeps running backlog
# totals, and evicts flow-table entries by popping them.  The classes
# below are the plain version of the same loop: object queue items,
# queues re-summed every epoch, LRU rotation by move_to_end.  Every
# output of the two must be equal, step for step.


class _OracleQueueItem:
    __slots__ = ("count", "bucket", "enq_time")

    def __init__(self, count, bucket, enq_time):
        self.count = count
        self.bucket = bucket
        self.enq_time = enq_time


class _OracleFlowTable(FlowTable):
    def lookup(self, flow_id, count=1):
        entry = self._entries.get(flow_id)
        if entry is None:
            self.punts += count
            return False
        entry.hits += count
        self._entries.move_to_end(flow_id)
        self.hits += count
        return True

    def install(self, flow_id, tenant, size=1):
        if flow_id in self._entries:
            return True
        if size > self.capacity:
            return False
        quota = self.tenant_quota
        if quota is not None and self._per_tenant.get(tenant, 0) + size > quota:
            self.quota_rejections += 1
            return False
        passes = 0
        while self._occupied + size > self.capacity:
            victim_id, victim = next(iter(self._entries.items()))
            if victim.hits > 0 and passes < len(self._entries):
                # second chance: decay and rotate instead of evicting
                victim.hits = 0
                self._entries.move_to_end(victim_id)
                passes += 1
                continue
            self._remove(victim_id, victim)
            self.evictions += 1
        self._entries[flow_id] = _FlowEntry(tenant, size)
        self._occupied += size
        self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + size
        return True

    def _remove(self, flow_id, entry):
        del self._entries[flow_id]
        self._occupied -= entry.size
        remaining = self._per_tenant.get(entry.tenant, 0) - entry.size
        if remaining > 0:
            self._per_tenant[entry.tenant] = remaining
        else:
            self._per_tenant.pop(entry.tenant, None)


class _OracleTier(GatewayTier):
    def __init__(self, names, **kwargs):
        super().__init__(names, **kwargs)
        for shard in self.shards.values():
            shard.table = _OracleFlowTable(shard.table.capacity,
                                           shard.table.tenant_quota)

    def classify(self, shard, flow_id, tenant, now, size=1, count=1):
        shard.absorb_pending(now)
        if shard.table.lookup(flow_id, count=count):
            return True
        shard.table.install(flow_id, tenant, size)
        return False


class _OracleModel(FlowAggregateModel):
    def __init__(self, classes, gateways, *, table_capacity, tenant_quota,
                 vnodes, sync_us, **kwargs):
        super().__init__(classes, gateways, table_capacity=table_capacity,
                         tenant_quota=tenant_quota, vnodes=vnodes,
                         sync_us=sync_us, **kwargs)
        self.tier = _OracleTier(self.names, table_capacity=table_capacity,
                                tenant_quota=tenant_quota, vnodes=vnodes,
                                sync_us=sync_us)

    def inflight(self):
        return sum(item.count for q in self._hot_q.values() for item in q) \
            + sum(item.count for q in self._cold_q.values() for item in q)

    def crash_gateway(self, name):
        shard = self.tier.shards[name]
        if not shard.healthy:
            return
        moved = self.tier.fail_gateway(name, self.now)
        self.flows_synced += sum(moved.values())
        self._invalidate_owners()
        if not self.tier.live_shards():
            for q in (self._hot_q[name], self._cold_q[name]):
                for item in q:
                    self.rejected += item.count
                q.clear()
            return
        for q in (self._hot_q[name], self._cold_q[name]):
            for item in q:
                heir = self.tier.ring.lookup(item.bucket.key)
                self._cold_q[heir].append(item)
                self.redirected += item.count
            q.clear()

    def _admit(self, now, live):
        per_epoch = self.epoch_us / 1e6
        for bucket in self.buckets:
            bucket.acc += bucket.rate_rps * per_epoch
            n = int(bucket.acc)
            if n == 0:
                continue
            bucket.acc -= n
            if not live:
                self.admitted += n
                self.rejected += n
                continue
            if bucket.owner is None or bucket.owner not in self.tier.ring:
                bucket.owner = self.tier.ring.lookup(bucket.key)
            name = bucket.owner
            shard = self.tier.shards[name]
            self.tier.spray_total[name] += n
            self.admitted += n
            if self.tier.classify(shard, bucket.key, bucket.tenant, now,
                                  size=bucket.flows, count=n):
                self._hot_q[name].append(_OracleQueueItem(n, bucket, now))
            else:
                self._cold_q[name].append(_OracleQueueItem(n, bucket, now))

    def _shed(self, live):
        for name in live:
            for queue, bound in ((self._hot_q[name], self.max_queue),
                                 (self._cold_q[name], self.max_cold_queue)):
                excess = sum(i.count for i in queue) - bound
                while excess > 0 and queue:
                    tail = queue[-1]
                    shed = min(tail.count, excess)
                    tail.count -= shed
                    self.rejected += shed
                    excess -= shed
                    if tail.count == 0:
                        queue.pop()

    def _serve(self, now, live):
        per_epoch = self.epoch_us / 1e6
        samples = self.samples
        for name in live:
            for queue, carry, rps, service_us, cold in (
                (self._hot_q[name], self._fast_carry, self.fastpath_rps,
                 self.hot_us, False),
                (self._cold_q[name], self._slow_carry, self.slowpath_rps,
                 self.cold_us, True),
            ):
                budget_f = rps * per_epoch + carry[name]
                budget = int(budget_f)
                carry[name] = budget_f - budget
                done_here = 0
                while budget > 0 and queue:
                    head = queue[0]
                    served = min(head.count, budget)
                    head.count -= served
                    budget -= served
                    done_here += served
                    latency = (now - head.enq_time) + service_us
                    if (samples and samples[-1][0] == now
                            and samples[-1][1] == latency):
                        samples[-1] = (now, latency, samples[-1][2] + served)
                    else:
                        samples.append((now, latency, served))
                    if cold:
                        shard = self.tier.shards[name]
                        shard.table.install(head.bucket.key,
                                            head.bucket.tenant,
                                            size=head.bucket.flows)
                    if head.count == 0:
                        queue.popleft()
                if done_here:
                    self.completed += done_here
                    self.completions_at[now] = (
                        self.completions_at.get(now, 0) + done_here)


class _CheckedModel(FlowAggregateModel):
    """The real model, asserting its running totals every epoch."""

    def _epoch(self, arrivals):
        super()._epoch(arrivals)
        _assert_totals(self)


def _assert_totals(model):
    for name in model.names:
        assert model._hot_n[name] == sum(i[0] for i in model._hot_q[name])
        assert model._cold_n[name] == sum(i[0] for i in model._cold_q[name])
        assert all(i[0] > 0 for q in (model._hot_q[name],
                                      model._cold_q[name]) for i in q)


def _queue_state(queue):
    return [(i[0], i[1].key, i[2]) if isinstance(i, list)
            else (i.count, i.bucket.key, i.enq_time) for i in queue]


def _state(model):
    """Everything observable about a model, at full precision."""
    shards = {}
    for name, shard in model.tier.shards.items():
        shards[name] = (
            shard.healthy, shard.sync_until, list(shard._pending_sync),
            _table_state(shard.table),
            _queue_state(model._hot_q[name]),
            _queue_state(model._cold_q[name]),
            model._fast_carry[name], model._slow_carry[name])
    return {
        "ledger": (model.admitted, model.completed, model.rejected,
                   model.redirected, model.flows_synced, model.epochs,
                   model.inflight(), model.now),
        "samples": list(model.samples),
        "completions_at": list(model.completions_at.items()),
        "counters": model.tier.counters(),
        "spray": dict(model.tier.spray_total),
        "ring": list(model.tier.ring._ring),
        "buckets": [(b.acc, b.owner) for b in model.buckets],
        "shards": shards,
    }


_CLASS = st.tuples(
    st.integers(min_value=1, max_value=400),          # clients
    st.sampled_from([0.5, 2.0, 7.5, 40.0, 200.0]),    # rps per client
    st.sampled_from([0.0, 0.8, 1.3]),                 # zipf_s
    st.integers(min_value=1, max_value=24),           # buckets
    st.sampled_from(["t-a", "t-b", "t-c"]),           # tenant
)

_EVENT = st.tuples(
    st.integers(min_value=0, max_value=40),           # epoch
    st.sampled_from(["crash", "recover"]),
    st.integers(min_value=0, max_value=5),            # gateway index
)


@settings(max_examples=150, deadline=None)
@given(
    gateways=st.integers(min_value=1, max_value=6),
    classes=st.lists(_CLASS, min_size=1, max_size=3),
    table_capacity=st.integers(min_value=1, max_value=600),
    tenant_quota=st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
    max_queue=st.integers(min_value=0, max_value=400),
    max_cold_queue=st.integers(min_value=0, max_value=120),
    fastpath_rps=st.sampled_from([20_000.0, 150_000.0, 1e6]),
    slowpath_rps=st.sampled_from([2_500.0, 15_000.0, 1e5]),
    sync_us=st.sampled_from([0.0, 1_000.0, 5_000.0]),
    events=st.lists(_EVENT, max_size=8),
    outage=st.booleans(),
    segments=st.lists(st.tuples(st.integers(min_value=1, max_value=30),
                                st.booleans()),
                      min_size=1, max_size=3),
)
def test_property_epoch_loop_matches_the_oracle(
        gateways, classes, table_capacity, tenant_quota, max_queue,
        max_cold_queue, fastpath_rps, slowpath_rps, sync_us, events,
        outage, segments):
    """Hypothesis: the model's epoch loop and flow table reproduce the
    straightforward oracle exactly — samples, goodput timeline, ledger,
    counters, and every shard's table in LRU order with its hits —
    through table thrash, second chances, tenant quotas, crash and
    recover schedules, total outages and drains; and the running
    backlog totals equal the re-summed queues after every epoch."""
    client_classes = [
        ClientClass(f"c{i}", tenant, clients=clients, rps_per_client=rps,
                    zipf_s=zipf_s, buckets=buckets)
        for i, (clients, rps, zipf_s, buckets, tenant) in enumerate(classes)]
    knobs = dict(table_capacity=table_capacity, tenant_quota=tenant_quota,
                 max_queue=max_queue, max_cold_queue=max_cold_queue,
                 fastpath_rps=fastpath_rps, slowpath_rps=slowpath_rps,
                 sync_us=sync_us, vnodes=8)
    schedule = [(epoch * 1_000.0, kind, f"gw{index % gateways}")
                for epoch, kind, index in events]
    if outage:
        # every gateway down at once, then one back
        schedule += [(20_000.0, "crash", name)
                     for name in (f"gw{i}" for i in range(gateways))]
        schedule.append((28_000.0, "recover", "gw0"))
    model = _CheckedModel(client_classes, gateways, **knobs)
    oracle = _OracleModel(client_classes, gateways, **knobs)
    for epochs, drain in segments:
        duration = epochs * 1_000.0
        start = model.now
        window = [e for e in schedule if start <= e[0] < start + duration]
        model.run(duration, events=window, drain=drain)
        oracle.run(duration, events=window, drain=drain)
        _assert_totals(model)
        assert _state(model) == _state(oracle)
    assert model.conserved() and oracle.conserved()


_OP = st.tuples(
    st.sampled_from(["lookup", "lookup", "install", "install", "evict"]),
    st.integers(min_value=0, max_value=7),            # flow id
    st.sampled_from(["t-a", "t-b"]),
    st.integers(min_value=1, max_value=9),            # size
    st.integers(min_value=1, max_value=3),            # count
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=30),
       quota=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
       ops=st.lists(_OP, max_size=60))
@example(  # a full table whose every entry was hit: the bound decides
    capacity=2, quota=None,
    ops=[("install", 0, "t-a", 1, 1), ("install", 1, "t-a", 1, 1),
         ("lookup", 0, "t-a", 1, 1), ("lookup", 1, "t-a", 1, 1),
         ("install", 2, "t-a", 1, 1)])
def test_property_flow_table_matches_the_oracle(capacity, quota, ops):
    """Hypothesis: after any sequence of lookups, installs and evicts,
    the table's resident set, LRU order, hits, occupancy and counters
    equal the oracle's, so pop-and-reinsert rotation, the second-chance
    bound and entry reuse change nothing."""
    table = FlowTable(capacity, quota)
    oracle = _OracleFlowTable(capacity, quota)
    for op, flow, tenant, size, count in ops:
        if op == "lookup":
            got = (table.lookup(flow, count), oracle.lookup(flow, count))
        elif op == "install":
            got = (table.install(flow, tenant, size),
                   oracle.install(flow, tenant, size))
        else:
            got = (table.evict(flow), oracle.evict(flow))
        assert got[0] == got[1]
        assert _table_state(table) == _table_state(oracle)


def _table_state(table):
    return (table.snapshot(), [e.hits for e in table._entries.values()],
            table._occupied, table._per_tenant, table.hits, table.punts,
            table.evictions, table.quota_rejections)


def test_oracle_run_thrashes_the_flow_table():
    """The oracle property reaches the paths it is there to pin: a
    tiny table evicts on most installs while hot entries still hit."""
    classes = [ClientClass("c", "t-a", clients=300, rps_per_client=40.0,
                           zipf_s=1.3, buckets=24)]
    knobs = dict(table_capacity=60, tenant_quota=None, max_queue=200,
                 max_cold_queue=50, fastpath_rps=150_000.0,
                 slowpath_rps=15_000.0, sync_us=1_000.0, vnodes=8)
    model = _CheckedModel(classes, 2, **knobs)
    oracle = _OracleModel(classes, 2, **knobs)
    for m in (model, oracle):
        m.run(30_000.0, events=[(10_000.0, "crash", "gw0"),
                                (20_000.0, "recover", "gw0")])
    assert _state(model) == _state(oracle)
    counters = model.tier.counters()
    assert counters["flow_table_evictions"] > 100
    assert counters["flow_table_hits"] > 0


def test_oracle_crash_overflows_the_heirs_punt_queue():
    """A crash that redirects more backlog than the heir's punt queue
    holds leaves it over its bound until the epoch's shed; the model
    trims it and its running total exactly as the oracle does."""
    classes = [ClientClass("c", "t-a", clients=2_000, rps_per_client=100.0,
                           zipf_s=0.8, buckets=32)]
    knobs = dict(table_capacity=4_096, tenant_quota=None, max_queue=400,
                 max_cold_queue=60, fastpath_rps=20_000.0,
                 slowpath_rps=2_500.0, sync_us=1_000.0, vnodes=8)
    model = _CheckedModel(classes, 3, **knobs)
    oracle = _OracleModel(classes, 3, **knobs)
    for m in (model, oracle):
        m.run(10_000.0, drain=False)
    backlog = model._hot_n["gw0"] + model._cold_n["gw0"]
    assert backlog > knobs["max_cold_queue"]
    for m in (model, oracle):
        m.run(10_000.0, events=[(10_000.0, "crash", "gw0")])
    assert _state(model) == _state(oracle)
    assert model.redirected == backlog


# ---------------------------------------------------------------------------
# golden: the gateway-scale gate's outputs are pinned
# ---------------------------------------------------------------------------

def test_gateway_scale_gate_matches_its_golden_digests():
    """The gateway-scale gate hashes to the committed digests: the quick
    sweep (1/2/4 gateways at 2 % scale) and the full million-client
    sweep, each as its table and, per model, every latency sample,
    completion count, tier counter and ledger total.  The full sweep
    also passes its checks.  Regenerate with
    ``tools/gate.py gateway-scale --update`` only for an intended
    change."""
    digests, failures = gate.run_gate("gateway-scale")
    assert failures == []
    assert digests == json.loads(gate.DIGESTS.read_text())["gateway-scale"]
