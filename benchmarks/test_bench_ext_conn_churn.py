"""Extension bench: control-plane connection churn.

Regenerates the ext_conn_churn experiment points and prints them.
The headline numbers are the TTFB a churning instance pays per
provisioning policy (cold explicit handshake vs pre-warmed shadow
pool vs shared active QP) and the spin-up throughput knee at the
control-plane ops/sec ceiling.
"""

import json

from repro.experiments import run_ceiling_point, run_churn_point


def test_bench_ext_conn_churn(once):
    def workload():
        section = {}
        for scenario in ("cold", "warm-fixed", "shared"):
            point = run_churn_point(scenario, day_us=600_000.0,
                                    max_instances=400)
            section[scenario.replace("-", "_")] = {
                "ttfb_p50_us": round(point["ttfb_p50_us"], 2),
                "ttfb_p95_us": round(point["ttfb_p95_us"], 2),
                "setups": int(point["setups"]),
                "instances": int(point["instances"]),
            }
        for mult in (0.5, 2.0):
            point = run_ceiling_point(mult, ops_per_sec=400.0)
            section[f"ceiling_{mult:g}x"] = {
                "offered_per_s": round(point["offered_per_s"], 1),
                "completed_per_s": round(point["completed_per_s"], 1),
                "ttfb_p50_us": round(point["ttfb_p50_us"], 1),
                "cp_wait_ms": round(point["cp_wait_ms"], 1),
            }
        return section

    section = once(workload)
    print()
    print(json.dumps(section, indent=1, sort_keys=True))
    # the policy ladder: cold explicit handshake > pre-warmed shadow
    # activation > shared active QP, strictly ordered
    assert (section["cold"]["ttfb_p50_us"]
            > section["warm_fixed"]["ttfb_p50_us"]
            > section["shared"]["ttfb_p50_us"])
    # every cold instance paid its own handshake; warm pools did not
    assert section["cold"]["setups"] == section["cold"]["instances"]
    assert section["warm_fixed"]["setups"] < section["warm_fixed"]["instances"]
    # the ceiling knee: below it completions track offered, past it
    # they saturate and queueing wait dominates the TTFB
    below, above = section["ceiling_0.5x"], section["ceiling_2x"]
    assert below["completed_per_s"] > 0.9 * below["offered_per_s"]
    assert above["completed_per_s"] < 0.6 * above["offered_per_s"]
    assert above["ttfb_p50_us"] > 5 * below["ttfb_p50_us"]
