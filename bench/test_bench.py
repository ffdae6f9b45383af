"""Smoke test of the benchmark at 5 % scale.

Run with ``python3 -m pytest bench`` from the repository root (the
tier-1 suite only collects ``tests/``).  It runs every workload once
untraced and twice traced, writing under ``bench/out/smoke``.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: per-layer metrics that are counts, so two traced runs must agree
EXACT_SUFFIXES = (".calls_per_request", ".events_per_request",
                  ".resumes_per_request")


def run_bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)


@pytest.fixture(scope="module")
def passes():
    """Two traced passes over every workload: [(results_path, results)]."""
    done = []
    for index in range(2):
        directory = OUT / f"pass{index}"
        out = directory / "results.json"
        proc = run_bench("--scale", "0.05", "--repeats", "1", "--trace", "1",
                         "--trace-dir", str(directory), "--out", str(out))
        assert proc.returncode == 0, proc.stdout
        done.append((out, json.loads(out.read_text())))
    return done


def test_every_metric_is_emitted_with_its_unit(passes):
    sections = passes[0][1]["workloads"]
    assert sorted(sections) == sorted(WORKLOADS)
    for name, section in sections.items():
        assert not section["checks"], section["checks"]
        for metric in SPEC["end_to_end"]:
            assert section["metrics"][metric["name"]]["unit"] == \
                metric["unit"], (name, metric)
        for metric in SPEC["per_layer"]:
            assert section["per_layer"][metric["name"]]["unit"] == \
                metric["unit"], (name, metric)


def test_traced_counts_repeat_exactly(passes):
    first, second = (results["workloads"] for _path, results in passes)
    for name in WORKLOADS:
        for metric, row in first[name]["per_layer"].items():
            if metric.endswith(EXACT_SUFFIXES):
                assert second[name]["per_layer"][metric]["value"] == \
                    row["value"], (name, metric)


def test_layer_shares_sum_to_one(passes):
    for name, section in passes[0][1]["workloads"].items():
        total = sum(row["value"] for metric, row in
                    section["per_layer"].items()
                    if metric.endswith(".self_share"))
        assert abs(total - 1.0) <= 0.01, (name, total)


def test_compare_flags_host_time_regression(passes):
    """A regression of twice the bound reads worse; the untouched
    simulated goodput reads unchanged."""
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "host_us_per_request")
    base_path, base = passes[0]
    new = copy.deepcopy(base)
    for section in new["workloads"].values():
        row = section["metrics"]["host_us_per_request"]
        row["values"] = [v * (1.0 + 2.0 * bound) for v in row["values"]]
    new_path = base_path.with_name("regressed.json")
    new_path.write_text(json.dumps(new))
    proc = run_bench("--compare", str(base_path), str(new_path))
    assert proc.returncode == 0, proc.stdout
    verdicts = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in WORKLOADS:
            verdicts[fields[0], fields[1]] = fields[-1]
    for name in WORKLOADS:
        assert verdicts[name, "host_us_per_request"] == "worse", name
        assert verdicts[name, "sim_goodput_rps"] == "unchanged", name


def test_single_workload_prints_the_result_line():
    proc = run_bench("--workload", "rdma-echo", "--scale", "0.05",
                     "--seconds", "1", "--trace", "0",
                     "--out", str(OUT / "single.json"))
    assert proc.returncode == 0, proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
