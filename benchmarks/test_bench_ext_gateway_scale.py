"""Extension bench: gateway-tier scale-out at O(10^6) modeled clients.

Regenerates the ext_gateway_scale experiment points and prints them.
The headline numbers are the aggregate goodput at each spray width,
the hot-path coverage the flow tables reach, and the mid-sweep crash
recovery at the 16-gateway point — all at a million modeled clients
per point, which is the whole reason the workload frontend is
flow-aggregate rather than per-client objects.
"""

import json

from repro.experiments import run_gateway_scale_point


def test_bench_ext_gateway_scale(once):
    def workload():
        section = {}
        for gateways in (1, 4, 16):
            point = run_gateway_scale_point(
                gateways, duration_us=400_000.0, crash=(gateways == 16))
            entry = {
                "clients": int(point["clients"]),
                "offered_rps": round(point["offered_rps"]),
                "goodput_rps": round(point["goodput_rps"]),
                "p99_us": round(point["p99_us"], 1),
                "hot_pct": round(100.0 * point["hot_ratio"], 1),
                "rejected": int(point["rejected"]),
                "lost": int(point["lost"]),
            }
            if point["crashed"]:
                entry["post_crash_rps"] = round(point["post_rps"])
                entry["blip_p99_us"] = round(point["blip_p99_us"], 1)
                entry["flows_synced"] = int(point["flows_synced"])
            section[f"gw{gateways}"] = entry
        return section

    section = once(workload)
    print()
    print(json.dumps(section, indent=1, sort_keys=True))
    # every point models a full million clients
    assert all(entry["clients"] >= 1_000_000 for entry in section.values())
    # goodput scales with the spray width
    assert (section["gw1"]["goodput_rps"]
            < section["gw4"]["goodput_rps"]
            < section["gw16"]["goodput_rps"])
    # the flow tables approach full hot-path coverage at the top
    assert section["gw16"]["hot_pct"] > 90.0
    assert section["gw16"]["hot_pct"] > section["gw1"]["hot_pct"]
    # the exact ledger: no lost requests anywhere, crash included
    assert all(entry["lost"] == 0 for entry in section.values())
    # the crash point recovered: surviving gateways carry the load and
    # the dead gateway's table entries were shipped to successors
    crash = section["gw16"]
    assert crash["flows_synced"] > 0
    assert crash["post_crash_rps"] > 0.7 * crash["goodput_rps"]
