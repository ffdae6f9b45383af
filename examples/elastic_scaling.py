#!/usr/bin/env python3
"""Elastic function scaling on the Palladium data plane.

Serverless platforms scale replicas with load — exactly the churn the
paper says demands flexible provisioning of network resources (§1).
This example runs a bursty workload against a replicated service under
a backlog-driven autoscaler: replicas appear as the burst builds
(routes published by the coordinator, Comch endpoints attached, SRQ
credits posted) and retire when it fades, while every in-flight request
completes.

Run:  python examples/elastic_scaling.py
"""

from repro import Environment, FunctionSpec, Tenant
from repro.config import SEC
from repro.platform import ElasticPlatform


def main():
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("shop", pool_buffers=2048))
    caller = plat.deploy(FunctionSpec("edge", "shop", work_us=0), "worker0")
    spec = FunctionSpec("resizer", "shop", work_us=350, concurrency=1)
    plat.deploy_service(spec, "worker1", replicas=1)
    scaler = plat.autoscaler(spec, nodes=["worker1", "worker0"],
                             min_count=1, max_count=6,
                             low=0.2, high=2.0, period_us=15_000)
    plat.start()
    scaler.start()

    completed = []

    def client(i):
        yield env.timeout(40_000)
        for _ in range(12):
            yield from caller.invoke("resizer", f"img-{i}", 1024)
            completed.append(env.now)

    for i in range(16):  # the burst
        env.process(client(i))

    def reporter():
        while True:
            yield env.timeout(100_000)
            print(f"[{env.now / SEC:5.2f} s] replicas="
                  f"{plat.replica_count('resizer')} "
                  f"backlog={plat.mean_backlog('resizer'):5.1f} "
                  f"done={len(completed)}")

    env.process(reporter())
    env.run(until=1.2 * SEC)

    peak = max(v for _t, v in scaler.count_series)
    print(f"\ncompleted {len(completed)}/192 requests")
    print(f"replicas peaked at {peak:.0f}, settled back to "
          f"{plat.replica_count('resizer')} "
          f"({scaler.scale_outs} scale-outs, {scaler.scale_ins} scale-ins)")


if __name__ == "__main__":
    main()
