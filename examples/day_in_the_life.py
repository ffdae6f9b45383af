#!/usr/bin/env python3
"""A day in the life: diurnal load against a fully elastic Palladium cloud.

Combines the repository's moving parts end to end:

* an open-loop source follows a compressed diurnal curve (morning peak,
  lunch dip, afternoon peak);
* a backlog-driven function autoscaler grows and shrinks the service's
  replicas with the curve, with the coordinator republishing routes on
  every change;
* Palladium's ingress runs its autoscaler (§3.6) over one to six
  gateway workers, but one worker carries the whole day: its useful
  utilization peaks near 39 %, below the 60 % spawn mark, so the run
  reports no gateway scale events.  Fig. 14 (``fig14``) shows the
  ingress scaling out under a load ramp.

Run:  python examples/day_in_the_life.py
"""

from dataclasses import replace

from repro import CostModel, Environment, FunctionSpec, Tenant
from repro.config import SEC
from repro.ingress import PalladiumIngress
from repro.platform import ElasticPlatform
from repro.workloads import OpenLoopSource, ScheduledSource, diurnal_schedule

DAY_US = 2 * SEC  # a two-simulated-second "day"


def main():
    env = Environment()
    # compress the autoscaler's cadence to the compressed day
    cost = replace(CostModel(),
                   ingress_autoscale_period_us=0.05 * SEC,
                   ingress_scale_event_pause_us=5_000.0)
    plat = ElasticPlatform(env, cost=cost)
    plat.add_tenant(Tenant("app", pool_buffers=4096))
    spec = FunctionSpec("api", "app", work_us=120, concurrency=4)
    plat.deploy_service(spec, "worker1", replicas=1)
    fn_scaler = plat.autoscaler(spec, nodes=["worker1", "worker0"],
                                max_count=8, low=0.3, high=3.0,
                                period_us=20_000)

    ingress = PalladiumIngress(env, plat.cluster, plat.fabric, cost,
                               lambda path: ("app", "api"),
                               min_workers=1, max_workers=6,
                               service_resolver=plat.resolve_service)
    ingress.add_tenant("app", buffers=2048)
    plat.coordinator.subscribe(ingress.routes)
    plat.register_external(ingress.AGENT, "ingress")
    ingress.start()
    plat.start()
    fn_scaler.start()

    source = OpenLoopSource(env, plat.cluster, ingress, rate_rps=1.0,
                            path="/api", body_bytes=512)
    schedule = diurnal_schedule(DAY_US, base_rps=4_000, peak_rps=60_000)
    driver = ScheduledSource(env, source, schedule)

    def kickoff():
        yield env.timeout(60_000)  # warm RC connections
        yield from driver.run()

    env.process(kickoff())

    def reporter():
        while True:
            yield env.timeout(0.2 * SEC)
            day_pct = 100 * (env.now - 60_000) / DAY_US
            print(f"[day {max(0, day_pct):5.1f}%] offered "
                  f"{schedule.rate_at(env.now - 60_000):>7,.0f} rps | "
                  f"gateway workers {len(ingress.pool.workers)} | "
                  f"api replicas {plat.replica_count('api')} | "
                  f"served {source.completed:,}")

    env.process(reporter())
    env.run(until=60_000 + DAY_US)

    print(f"\nday over: {source.completed:,}/{source.offered:,} requests "
          f"served")
    print(f"gateway scale events: {ingress.pool.autoscaler.scale_events}; "
          f"function scale-outs/ins: {fn_scaler.scale_outs}/"
          f"{fn_scaler.scale_ins}")


if __name__ == "__main__":
    main()
