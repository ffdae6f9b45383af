"""Ablations of single design choices: each one beats the variant
without it.

* pool-based buffer allocation vs a glibc-malloc cost per message
  (§3.4's rte_mempool-style pools);
* shadow-QP activation from a warmed pool vs a cold RC handshake on
  the data path (§3.3's connection pooling);
* the backlog-driven function autoscaler vs a static single replica
  under a load burst (§1's provisioning churn).
"""

from dataclasses import replace

from repro.config import CostModel, cost_model_overrides
from repro.experiments.fig11_offpath import run_echo_point
from repro.hw import build_cluster
from repro.platform import ElasticPlatform, FunctionSpec, Tenant
from repro.rdma import ConnectionManager, RdmaFabric
from repro.sim import Environment


def test_mempool_beats_malloc_per_message():
    pool_rps, _ = run_echo_point("off-path", 1024, 16, duration_us=40_000)
    cost = cost_model_overrides()
    malloc_cost = replace(cost, mempool_op_us=cost.malloc_op_us)
    malloc_rps, _ = run_echo_point("off-path", 1024, 16, duration_us=40_000,
                                   cost=malloc_cost)
    assert pool_rps >= malloc_rps


def _time_connection(warmed: bool) -> float:
    env = Environment()
    cost = CostModel()
    fabric = RdmaFabric(env, build_cluster(env, cost), cost)
    fabric.install_rnic("worker0")
    fabric.install_rnic("worker1")
    cm = ConnectionManager(env, fabric, "worker0", cost)
    elapsed = {}

    def run():
        if warmed:
            yield from cm.warm_up("worker1", "t", 2)
        t0 = env.now
        yield from cm.get_connection("worker1", "t")
        elapsed["t"] = env.now - t0

    env.process(run())
    env.run()
    return elapsed["t"]


def test_shadow_qp_activation_beats_cold_handshake():
    warm = _time_connection(warmed=True)
    cold = _time_connection(warmed=False)
    assert cold > 1000 * warm


def _burst_mean_latency(autoscale: bool) -> float:
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=2048))
    caller = plat.deploy(FunctionSpec("edge", "t1", work_us=0), "worker0")
    spec = FunctionSpec("svc", "t1", work_us=300, concurrency=1)
    plat.deploy_service(spec, "worker1", replicas=1)
    scaler = plat.autoscaler(spec, nodes=["worker1", "worker0"],
                             max_count=6, low=0.2, high=2.0,
                             period_us=15_000)
    plat.start()
    if autoscale:
        scaler.start()
    latencies = []

    def client():
        yield env.timeout(40_000)
        for _ in range(10):
            t0 = env.now
            yield from caller.invoke("svc", "x", 512)
            latencies.append(env.now - t0)

    for _ in range(16):
        env.process(client())
    env.run(until=1_500_000)
    return sum(latencies) / max(1, len(latencies))


def test_autoscaling_cuts_burst_latency():
    assert _burst_mean_latency(autoscale=True) \
        < _burst_mean_latency(autoscale=False)
