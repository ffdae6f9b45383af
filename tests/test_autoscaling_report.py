"""Tests for the function autoscaler and the report persistence module."""

import pytest

from repro.experiments import ExperimentResult, from_json, load, save, to_csv, to_json
from repro.platform import ElasticPlatform, FunctionSpec, Tenant
from repro.sim import Environment


# ---------------------------------------------------------------------------
# The function autoscaler (ElasticPlatform.autoscaler)
# ---------------------------------------------------------------------------

def scaled_setup(min_replicas=1, max_replicas=4, work_us=400.0,
                 concurrency=1):
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1", pool_buffers=2048))
    caller = plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    spec = FunctionSpec("svc", "t1", work_us=work_us, concurrency=concurrency)
    plat.deploy_service(spec, "worker1", replicas=min_replicas)
    scaler = plat.autoscaler(spec, nodes=["worker1", "worker0"],
                             min_count=min_replicas, max_count=max_replicas,
                             low=0.2, high=2.0, period_us=10_000.0)
    plat.start()
    scaler.start()
    return env, plat, caller, scaler


def test_autoscaler_validation():
    env = Environment()
    plat = ElasticPlatform(env)
    plat.add_tenant(Tenant("t1"))
    spec = FunctionSpec("svc", "t1")
    plat.deploy_service(spec, "worker0")
    with pytest.raises(ValueError):
        plat.autoscaler(spec, ["worker0"], min_count=0)
    with pytest.raises(ValueError):
        plat.autoscaler(spec, ["worker0"], low=2.0, high=1.0)


def test_autoscaler_scales_out_under_backlog():
    env, plat, caller, scaler = scaled_setup()

    def client(i):
        yield env.timeout(30_000)
        for _ in range(10):
            yield from caller.invoke("svc", "x", 64)

    for i in range(12):  # 12 concurrent closed loops on a slow service
        env.process(client(i))
    env.run(until=700_000)
    assert scaler.scale_outs >= 1
    # the replica count peaked above 1 while the burst was in flight
    assert max(v for _t, v in scaler.count_series) > 1


def test_autoscaler_scales_back_when_idle():
    env, plat, caller, scaler = scaled_setup()

    def burst():
        yield env.timeout(30_000)
        procs = []

        def one():
            for _ in range(6):
                yield from caller.invoke("svc", "x", 64)

        for _ in range(12):
            procs.append(env.process(one()))
        for proc in procs:
            yield proc
        # burst over: long idle period follows

    env.process(burst())
    env.run(until=2_000_000)
    assert scaler.scale_ins >= 1
    assert plat.replica_count("svc") == scaler.min_count


def test_autoscaler_respects_max():
    env, plat, caller, scaler = scaled_setup(max_replicas=2)

    def client(i):
        yield env.timeout(30_000)
        for _ in range(20):
            yield from caller.invoke("svc", "x", 64)

    for i in range(16):
        env.process(client(i))
    env.run(until=800_000)
    assert plat.replica_count("svc") <= 2


def test_autoscaler_double_start_rejected():
    env, plat, caller, scaler = scaled_setup()
    with pytest.raises(RuntimeError):
        scaler.start()


def test_autoscaler_records_series():
    env, plat, caller, scaler = scaled_setup()
    env.run(until=100_000)
    assert len(scaler.count_series) >= 5


# ---------------------------------------------------------------------------
# report persistence
# ---------------------------------------------------------------------------

def sample_result():
    result = ExperimentResult("demo exp", columns=["name", "value"])
    result.add_row("a", 1.5)
    result.add_row("b", 2)
    result.add_series("ts", [(0.0, 1.0), (1.0, 2.0)])
    result.note("a note")
    return result


def test_json_round_trip():
    original = sample_result()
    restored = from_json(to_json(original))
    assert restored.name == original.name
    assert restored.columns == original.columns
    assert restored.rows == original.rows
    assert restored.series["ts"] == [(0.0, 1.0), (1.0, 2.0)]
    assert restored.notes == original.notes


def test_json_round_trip_keeps_a_flat_series():
    # Regression: fig15 stores its tick axis as a flat list of floats,
    # and to_json raised TypeError on it (so --all --json crashed).
    original = sample_result()
    original.add_series("ticks", [0.0, 1e6, 2e6])
    restored = from_json(to_json(original))
    assert restored.series["ticks"] == [0.0, 1e6, 2e6]
    assert restored.series["ts"] == [(0.0, 1.0), (1.0, 2.0)]


def test_json_version_check():
    import json
    bad = json.dumps({"version": 99, "name": "x", "columns": [], "rows": []})
    with pytest.raises(ValueError):
        from_json(bad)


def test_csv_export():
    text = to_csv(sample_result())
    lines = text.strip().splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == "a,1.5"


def test_save_and_load(tmp_path):
    original = sample_result()
    json_path = save(original, tmp_path)
    assert json_path.exists()
    assert (tmp_path / "demo_exp.csv").exists()
    restored = load(json_path)
    assert restored.rows == original.rows


def test_save_custom_stem(tmp_path):
    path = save(sample_result(), tmp_path, stem="custom")
    assert path.name == "custom.json"
