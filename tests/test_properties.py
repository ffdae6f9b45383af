"""Property-based tests (hypothesis) on core data structures & invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.dne import DwrrScheduler, FcfsScheduler
from repro.memory import MemoryPool, OwnershipError, PoolExhausted
from repro.platform import Autoscaler
from repro.sim import Environment, Store

from .resource_reference import Resource


# ---------------------------------------------------------------------------
# Store: FIFO, conservation
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(), max_size=60))
def test_store_fifo_property(items):
    env = Environment()
    store = Store(env)
    for item in items:
        store.put_nowait(item)
    out = []
    while True:
        value = store.try_get()
        if value is None:
            break
        out.append(value)
    assert out == items


@given(st.lists(st.sampled_from(["put", "get"]), max_size=100))
def test_store_conservation_under_op_sequences(ops):
    env = Environment()
    store = Store(env)
    put, got = 0, 0
    for op in ops:
        if op == "put":
            store.put_nowait(put)
            put += 1
        else:
            if store.try_get() is not None:
                got += 1
    assert put - got == len(store.items)


# ---------------------------------------------------------------------------
# Resource (the test reference): capacity invariant under random hold times
# ---------------------------------------------------------------------------

@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1,
                   max_size=20),
)
@settings(max_examples=30, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    res = Resource(env, capacity=capacity)
    peak = [0]

    def worker(duration):
        req = res.request()
        yield req
        peak[0] = max(peak[0], len(res.users))
        yield env.timeout(duration)
        res.release(req)

    for duration in holds:
        env.process(worker(duration))
    env.run()
    assert peak[0] <= capacity
    assert res.users == []


# ---------------------------------------------------------------------------
# MemoryPool: buffer conservation, exclusive ownership
# ---------------------------------------------------------------------------

@given(st.lists(st.sampled_from(["get", "put", "transfer"]), max_size=200))
def test_mempool_conservation(ops):
    env = Environment()
    pool = MemoryPool(env, "t", 8, 256)
    held = []
    for op in ops:
        if op == "get":
            try:
                held.append(pool.get("a"))
            except PoolExhausted:
                assert len(held) == 8
        elif op == "put" and held:
            buf = held.pop()
            pool.put(buf, buf.owner)
        elif op == "transfer" and held:
            held[-1].transfer(held[-1].owner, f"agent{len(held)}")
    assert pool.free_count + len(held) == 8
    # every held buffer still rejects access by a stranger
    for buf in held:
        try:
            buf.read("stranger")
            assert False, "ownership not enforced"
        except OwnershipError:
            pass


@given(st.data())
def test_mempool_no_double_ownership(data):
    """A buffer handed off is never accessible to the previous owner."""
    env = Environment()
    pool = MemoryPool(env, "t", 4, 64)
    buf = pool.get("owner0")
    chain = ["owner0"]
    for i in range(data.draw(st.integers(min_value=1, max_value=10))):
        new_owner = f"owner{i + 1}"
        buf.transfer(chain[-1], new_owner)
        chain.append(new_owner)
    for stale in chain[:-1]:
        try:
            buf.write(stale, "x", 1)
            assert False
        except OwnershipError:
            pass
    buf.write(chain[-1], "ok", 2)


# ---------------------------------------------------------------------------
# DWRR: weighted fairness and work conservation as properties
# ---------------------------------------------------------------------------

@given(
    weights=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=2,
                     max_size=5),
    size=st.integers(min_value=64, max_value=4096),
)
@settings(max_examples=25, deadline=None)
def test_dwrr_shares_proportional_to_weights(weights, size):
    sched = DwrrScheduler(quantum_bytes=256)
    tenants = [f"t{i}" for i in range(len(weights))]
    for tenant, weight in zip(tenants, weights):
        sched.set_weight(tenant, weight)
        for j in range(3000):
            sched.enqueue(tenant, j, nbytes=size)
    served = {tenant: 0 for tenant in tenants}
    rounds = 1500
    for _ in range(rounds):
        tenant, _ = sched.dequeue()
        served[tenant] += 1
    total_weight = sum(weights)
    for tenant, weight in zip(tenants, weights):
        expected = rounds * weight / total_weight
        assert abs(served[tenant] - expected) <= max(10, 0.15 * expected)


@given(st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=1, max_value=5000)),
    max_size=120,
))
def test_dwrr_work_conserving_property(messages):
    sched = DwrrScheduler(quantum_bytes=128)
    for tenant, nbytes in messages:
        sched.enqueue(tenant, nbytes, nbytes=nbytes)
    out = 0
    while sched.pending():
        assert sched.dequeue() is not None
        out += 1
    assert out == len(messages)


@given(st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.text(max_size=3)),
    max_size=80,
))
def test_fcfs_preserves_global_order(messages):
    sched = FcfsScheduler()
    for tenant, item in messages:
        sched.enqueue(tenant, item)
    out = []
    while sched.pending():
        out.append(sched.dequeue())
    assert out == messages


@given(st.lists(st.integers(min_value=1, max_value=8192), min_size=1,
                max_size=60))
def test_dwrr_single_tenant_preserves_fifo(sizes):
    sched = DwrrScheduler(quantum_bytes=512)
    for i, nbytes in enumerate(sizes):
        sched.enqueue("only", i, nbytes=nbytes)
    out = []
    while sched.pending():
        out.append(sched.dequeue()[1])
    assert out == list(range(len(sizes)))

# ---------------------------------------------------------------------------
# Fault injection: seeded replay determinism
# ---------------------------------------------------------------------------

from repro.faults import FaultInjector, FaultPlan  # noqa: E402
from repro.platform import ElasticPlatform, FunctionSpec, Tenant  # noqa: E402


def _fault_scenario(seed, crash_at, down_us):
    """A small crash/restart run; returns every observable of the run."""
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1"))
    client = plat.deploy(FunctionSpec("client", "t1", work_us=0), "worker0")
    spec = FunctionSpec("svc", "t1", work_us=5)
    plat.deploy_service(spec, "worker1")
    plat.scale_out(spec, "worker0")
    plat.start()

    rng = random.Random(seed)
    stats = {"ok": 0, "err": 0}

    def load():
        yield env.timeout(30_000)
        for _ in range(20):
            yield env.timeout(rng.uniform(200.0, 2_000.0))
            try:
                yield from client.invoke("svc", "ping", 64)
                stats["ok"] += 1
            except Exception:
                stats["err"] += 1

    env.process(load(), name="load")
    plan = FaultPlan().node_crash(crash_at, "worker1", down_us=down_us)
    injector = FaultInjector(env, plat, plan)
    injector.start()
    env.run(until=250_000)
    reconnects = sum(e.conn_mgr.reconnects_succeeded
                     for e in plat.engines.values())
    return (tuple(injector.timeline), stats["ok"], stats["err"], reconnects)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    crash_at=st.floats(min_value=40_000.0, max_value=100_000.0),
    down_us=st.floats(min_value=20_000.0, max_value=80_000.0),
)
@settings(max_examples=6, deadline=None)
def test_fault_replay_is_deterministic(seed, crash_at, down_us):
    """Same seed + same plan -> identical timeline and counters."""
    first = _fault_scenario(seed, crash_at, down_us)
    second = _fault_scenario(seed, crash_at, down_us)
    assert first == second


# ---------------------------------------------------------------------------
# Dataplane message: single-owner transfer/retire protocol
# ---------------------------------------------------------------------------

from repro.config import CostModel  # noqa: E402
from repro.dataplane import Message, OwnershipViolation  # noqa: E402
from repro.hw import build_cluster  # noqa: E402
from repro.rdma import (  # noqa: E402
    ConnectionManager,
    Opcode,
    RdmaFabric,
    WorkRequest,
)

_AGENTS = st.sampled_from(["fn:a", "fn:b", "dne:w0", "rnic:w0", "ingress"])


@given(st.lists(_AGENTS, min_size=1, max_size=12))
def test_message_has_exactly_one_owner_at_any_instant(hops):
    """After every handoff exactly one agent passes check_owner."""
    universe = ["fn:a", "fn:b", "dne:w0", "rnic:w0", "ingress"]
    msg = Message(rid=1, owner=hops[0])
    current = hops[0]
    for nxt in hops[1:]:
        msg.transfer(current, nxt)
        current = nxt
        owners = []
        for agent in universe:
            try:
                msg.check_owner(agent)
                owners.append(agent)
            except OwnershipViolation:
                pass
        assert owners == [current]


@given(st.lists(_AGENTS, min_size=2, max_size=10, unique=True))
def test_message_use_after_transfer_raises(chain):
    """Every stale holder is locked out of transfer AND retire."""
    msg = Message(rid=2, owner=chain[0])
    for prev, nxt in zip(chain, chain[1:]):
        msg.transfer(prev, nxt)
    for stale in chain[:-1]:
        try:
            msg.transfer(stale, "thief")
            assert False, "stale transfer accepted"
        except OwnershipViolation:
            pass
        try:
            msg.retire(stale)
            assert False, "stale retire accepted"
        except OwnershipViolation:
            pass
    msg.retire(chain[-1])


@given(_AGENTS, _AGENTS)
def test_message_double_retire_raises(first, second):
    msg = Message(rid=3, owner=first)
    msg.retire(first)
    try:
        msg.retire(second)
        assert False, "double retire accepted"
    except OwnershipViolation:
        pass
    # a retired message also rejects any further handoff
    try:
        msg.transfer(first, second)
        assert False, "use after retire accepted"
    except OwnershipViolation:
        pass


@given(_AGENTS)
def test_unowned_message_is_adopted_by_first_transfer(adopter):
    """Driver-built headers enter the protocol at their first handoff."""
    msg = Message(rid=4)
    assert msg.owner is None
    msg.transfer("whoever", adopter)
    assert msg.owner == adopter
    # from then on the protocol is strict
    try:
        msg.transfer("whoever", "elsewhere")
        assert False
    except OwnershipViolation:
        pass


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=10, deadline=None)
def test_fault_flushed_cqes_retire_exactly_once(n_posts):
    """Messages on fault-flushed WRs are reclaimed by the poller once."""
    env = Environment()
    cost = CostModel()
    cluster = build_cluster(env, cost)
    fabric = RdmaFabric(env, cluster, cost)
    r0 = fabric.install_rnic("worker0")
    fabric.install_rnic("worker1")
    cm = ConnectionManager(env, fabric, "worker0", cost)
    holder = {}

    def setup():
        holder["qps"] = yield from cm.warm_up("worker1", "t", 1)

    env.process(setup())
    env.run()
    qp = holder["qps"][0]
    cm.fail_connections(cause="injected")

    messages = []
    for i in range(n_posts):
        # the engine hands each header to its RNIC before posting
        message = Message(rid=i, owner="dne:w0")
        message.transfer("dne:w0", "rnic:worker0")
        messages.append(message)
        r0.post_send(qp, WorkRequest(opcode=Opcode.SEND, length=8,
                                     message=message))
    env.run()

    flushed = []
    while True:
        completion = r0.cq.try_get()
        if completion is None:
            break
        assert completion.flushed and not completion.ok
        flushed.append(completion)
    assert len(flushed) == n_posts
    for completion in flushed:
        # poller reclaims: transfer off the dead QP, retire exactly once
        completion.message.transfer("rnic:worker0", "dne:w0")
        completion.message.retire("dne:w0")
    for message in messages:
        assert message.retired
        try:
            message.retire("dne:w0")
            assert False, "double retire accepted"
        except OwnershipViolation:
            pass


# ---------------------------------------------------------------------------
# Live migration: handover conserves every in-flight message
# ---------------------------------------------------------------------------

@given(
    n=st.integers(min_value=1, max_value=12),
    migrate_at=st.floats(min_value=30_100.0, max_value=38_000.0),
    state_kb=st.integers(min_value=16, max_value=4096),
)
@settings(max_examples=15, deadline=None)
def test_migration_handover_conserves_inflight_messages(n, migrate_at,
                                                        state_kb):
    """Every request in flight across a handover is served exactly once.

    Whatever instant the freeze lands at — requests queued, parked,
    mid-handler, or arriving as stragglers after the flip — each one
    is answered exactly once (double-retire or loss would surface as
    an OwnershipViolation or a missing reply), no engine drops
    anything, and every buffer returns to its pool.
    """
    from repro.platform import FunctionSpec, ServerlessPlatform, Tenant

    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=512))
    caller = plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    svc = plat.deploy(FunctionSpec("svc", "t1", work_us=200, concurrency=2),
                      "worker1")
    plat.start()

    replies = []

    def client(i):
        yield env.timeout(30_000 + i * 137.0)
        reply = yield from caller.invoke("svc", f"m{i}", 64)
        replies.append(reply.payload)

    for i in range(n):
        env.process(client(i))

    def mig():
        yield env.timeout(migrate_at)
        record = yield from plat.migrate_function(
            "svc", "worker0", state_bytes=state_kb * 1024)
        assert record.ok

    env.process(mig())

    # Steady-state pool levels before any traffic: the engines' recv
    # rings hold buffers permanently, so "all transients returned"
    # means matching this baseline, not a completely full pool.
    baseline = {}

    def snapshot():
        yield env.timeout(29_000)
        for node in plat.runtimes:
            baseline[node] = plat.pool_for("t1", node).free_count

    env.process(snapshot())
    env.run(until=2_000_000)

    assert sorted(replies) == sorted(f"m{i}" for i in range(n))
    assert svc.handled == n
    for engine in plat.engines.values():
        assert engine.stats.dropped == 0
    for node in plat.runtimes:
        assert plat.pool_for("t1", node).free_count == baseline[node]


# ---------------------------------------------------------------------------
# Autoscaler: the one hysteresis loop, over a scripted signal
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=60, deadline=None)
def test_autoscaler_acts_exactly_on_its_watermarks(data):
    min_count = data.draw(st.integers(min_value=1, max_value=4))
    max_count = data.draw(st.integers(min_value=min_count, max_value=8))
    initial = data.draw(st.integers(min_value=min_count, max_value=max_count))
    # the watermarks themselves are drawn often: they must not act
    level = st.one_of(st.sampled_from([0.3, 0.6]),
                      st.floats(min_value=0.0, max_value=1.0))
    signals = data.draw(st.lists(level, max_size=40))
    env = Environment()
    script = iter(signals)
    state = {"count": initial}
    grown, shrunk = [], []

    def grow():
        state["count"] += 1
        grown.append(env.now)
        assert state["count"] <= max_count

    def shrink():
        state["count"] -= 1
        shrunk.append(env.now)
        assert state["count"] >= min_count

    scaler = Autoscaler(env, lambda: next(script), lambda: state["count"],
                        grow, shrink, low=0.3, high=0.6,
                        min_count=min_count, max_count=max_count,
                        period_us=10.0)
    scaler.start()
    env.run(until=10.0 * len(signals) + 5.0)

    assert len(scaler.signal_series) == len(scaler.count_series) == len(signals)
    assert scaler.signal_series.values == signals
    for (t, signal), (_t, count) in zip(scaler.signal_series,
                                        scaler.count_series):
        assert min_count <= count <= max_count
        assert (t in grown) == (signal > 0.6 and count < max_count)
        assert (t in shrunk) == (signal < 0.3 and count > min_count)
    assert scaler.scale_outs == len(grown)
    assert scaler.scale_ins == len(shrunk)
    assert scaler.scale_outs - scaler.scale_ins == state["count"] - initial
    assert scaler.scale_events == scaler.scale_outs + scaler.scale_ins
