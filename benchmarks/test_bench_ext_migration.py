"""Extension bench: live migration vs kill-and-cold-start.

Regenerates the ext_migration experiment points and prints them.
The headline numbers are the freeze-to-thaw downtime per checkpoint state
size and the cold-start TTFB it must stay strictly below.
"""

import json

from repro.experiments import run_drain_point, run_migration_point


def test_bench_ext_migration(once):
    def workload():
        section = {}
        for kb in (64, 4096):
            m = run_migration_point(kb, "migrate", clients=8)
            section[f"migrate_{kb}kb"] = {
                "downtime_us": round(m["downtime_us"], 1),
                "blip_p99_us": round(m["blip_p99_us"], 1),
                "redirected": int(m["redirected"]),
                "client_errors": int(m["client_errors"]),
            }
        cold = run_migration_point(64, "cold", clients=8)
        section["cold_start"] = {
            "downtime_us": round(cold["downtime_us"], 1),
            "client_errors": int(cold["client_errors"]),
        }
        drain = run_drain_point(clients=8)
        section["node_drain"] = {
            "drain_ms": round(drain["drain_ms"], 3),
            "migrated": int(drain["migrated"]),
            "client_errors": int(drain["client_errors"]),
        }
        return section

    section = once(workload)
    print()
    print(json.dumps(section, indent=1, sort_keys=True))
    # live migration stays strictly below the cold-start TTFB at every
    # state size, loses nothing, and the drain empties worker1
    cold_ttfb = section["cold_start"]["downtime_us"]
    for key, row in section.items():
        if key.startswith("migrate_"):
            assert 0 < row["downtime_us"] < cold_ttfb
            assert row["client_errors"] == 0
    assert section["cold_start"]["client_errors"] > 0
    assert section["node_drain"]["migrated"] == 2
