"""Tests for extension features: security domains, multi-ingress LB,
ablation experiments, and the CLI runner."""

import json
from pathlib import Path

import pytest

from repro.config import CostModel
from repro.experiments.__main__ import EXPERIMENTS, GATES, main
from repro.ingress import IngressLoadBalancer, PalladiumIngress
from repro.net import HttpRequest
from repro.platform import FunctionSpec, ServerlessPlatform, Tenant
from repro.sim import Environment
from repro.workloads import ClientFleet, deploy_http_echo


# ---------------------------------------------------------------------------
# Cross-security-domain copies (§3.1)
# ---------------------------------------------------------------------------

def two_tenant_platform():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1"))
    plat.add_tenant(Tenant("t2"))
    caller = plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("same-tenant", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("other-tenant", "t2", work_us=0), "worker0")
    plat.start()
    return env, plat, caller


def test_same_tenant_is_zero_copy():
    env, plat, caller = two_tenant_platform()

    def body():
        yield env.timeout(30_000)
        yield from caller.invoke("same-tenant", "x", 64)

    env.process(body())
    env.run(until=200_000)
    assert caller.iolib.cross_domain_sends == 0
    assert caller.iolib.intra_sends == 1


def test_cross_tenant_invocation_copies():
    env, plat, caller = two_tenant_platform()
    replies = []

    def body():
        yield env.timeout(30_000)
        reply = yield from caller.invoke("other-tenant", "secret", 64)
        replies.append(reply.payload)

    env.process(body())
    env.run(until=200_000)
    assert replies == ["secret"]
    assert caller.iolib.cross_domain_sends >= 1


def test_cross_tenant_buffer_stays_in_destination_pool():
    """The copy lands in the destination tenant's pool; the sender's
    buffer never crosses the domain."""
    env, plat, caller = two_tenant_platform()

    def body():
        yield env.timeout(30_000)
        yield from caller.invoke("other-tenant", "x", 64)

    env.process(body())
    env.run(until=200_000)
    # pools fully recycled afterwards => no foreign buffers trapped
    for tenant in ("t1", "t2"):
        pool = plat.pool_for(tenant, "worker0")
        assert pool.free_count == pool.buffer_count - plat.recv_buffers


def test_infrastructure_endpoints_are_trusted():
    """The ingress adapter (tenant None) never triggers domain copies."""
    env, plat, caller = two_tenant_platform()
    runtime = plat.runtimes["worker0"]
    assert not runtime.crosses_security_domain("t1", "same-tenant")
    assert runtime.crosses_security_domain("t1", "other-tenant")
    assert not runtime.crosses_security_domain("t1", "_some_adapter")


def test_cross_tenant_remote_rejected():
    env = Environment()
    plat = ServerlessPlatform(env)
    plat.add_tenant(Tenant("t1"))
    plat.add_tenant(Tenant("t2"))
    caller = plat.deploy(FunctionSpec("caller", "t1", work_us=0), "worker0")
    plat.deploy(FunctionSpec("remote-other", "t2", work_us=0), "worker1")
    plat.start()

    def body():
        yield env.timeout(30_000)
        yield from caller.invoke("remote-other", "x", 64)

    env.process(body())
    with pytest.raises(RuntimeError, match="cross-tenant"):
        env.run(until=200_000)


# ---------------------------------------------------------------------------
# Multi-instance ingress load balancing
# ---------------------------------------------------------------------------

def balanced_setup(instances=2):
    env = Environment()
    plat = ServerlessPlatform(env)
    resolver = deploy_http_echo(plat)
    gateways = []
    for _ in range(instances):
        gw = PalladiumIngress(env, plat.cluster, plat.fabric, plat.cost,
                              resolver, min_workers=1)
        gw.add_tenant("echo", buffers=256)
        plat.coordinator.subscribe(gw.routes)
        gateways.append(gw)
    plat.register_external(gateways[0].AGENT, "ingress")
    balancer = IngressLoadBalancer(gateways)
    balancer.start()
    plat.start()
    return env, plat, balancer


def test_balancer_requires_instances():
    with pytest.raises(ValueError):
        IngressLoadBalancer([])


def test_balancer_end_to_end():
    env, plat, balancer = balanced_setup()
    fleet = ClientFleet(env, plat.cluster, balancer, path="/echo",
                        body_bytes=128, payload="x")

    def kickoff():
        yield env.timeout(50_000)
        fleet.spawn(8)

    env.process(kickoff())
    env.run(until=300_000)
    assert fleet.total_completed() > 100
    assert fleet.total_errors() == 0


def test_balancer_spreads_connections():
    env, plat, balancer = balanced_setup()
    for _ in range(32):
        balancer.connect()
    per_instance = [i.stats.accepted for i in balancer.instances]
    # connections spread, not all on one instance
    fleet_conns = len(balancer._owner)
    assert fleet_conns == 32
    owners = {id(owner) for owner, _conn in balancer._owner.values()}
    assert len(owners) == 2


def test_balancer_aggregates_stats():
    env, plat, balancer = balanced_setup()
    fleet = ClientFleet(env, plat.cluster, balancer, path="/echo",
                        body_bytes=128, payload="x")

    def kickoff():
        yield env.timeout(50_000)
        fleet.spawn(4)

    env.process(kickoff())
    env.run(until=200_000)
    served = sum(i.stats.completed for i in balancer.instances)
    assert served == fleet.total_completed()


def test_siblings_share_one_cq_sink():
    # Two gateways on one ingress RNIC: the CQ has one sink, the one
    # the sibling started last installed, and it routes every response
    # to a worker of the sibling that owns the request id.
    env, plat, balancer = balanced_setup()
    first, last = balancer.instances
    cq = first.rnic.cq
    assert last.rnic is first.rnic
    assert cq._sink == last._dispatch_cqe

    routed = []
    for gw in balancer.instances:
        def recorder(worker, fstack, http, completion, gw=gw,
                     handle=gw._handle_response):
            rid = completion.message.rid
            routed.append((gw, rid in gw._pending, worker in gw.pool.workers))
            yield from handle(worker, fstack, http, completion)
        gw._handle_response = recorder

    def client():
        conn = balancer.connect()
        for _ in range(5):
            balancer.submit(conn, HttpRequest(path="/echo", body="x",
                                              body_bytes=128))
            response = yield conn.inbox.get()
            assert response.status == 200

    def kickoff():
        yield env.timeout(50_000)
        for _ in range(8):
            env.process(client())

    env.process(kickoff())
    env.run(until=150_000)
    assert len(routed) == 40
    assert all(owned and own_worker for _gw, owned, own_worker in routed)
    # both siblings served, so the one sink routed for both
    assert {gw for gw, _owned, _own in routed} == {first, last}
    assert sum(gw.stats.completed for gw in balancer.instances) == 40
    # quiescent: every CQE went to the sink, none waits in the CQ
    assert not cq.items
    assert not cq._getters


# ---------------------------------------------------------------------------
# Ablation experiments (quick shapes)
# ---------------------------------------------------------------------------

def test_sidecar_ablation_shape():
    from repro.experiments import run_sidecar_ablation
    result = run_sidecar_ablation(clients=12, duration_us=60_000)
    container = result.find_row(sidecar="container-sidecar")
    ebpf = result.find_row(sidecar="ebpf-sidecar")
    shared = result.find_row(sidecar="shared-sidecar")
    assert container["rps"] < ebpf["rps"] <= shared["rps"] * 1.05
    assert container["latency_ms"] > ebpf["latency_ms"]


def test_placement_ablation_shape():
    from repro.experiments import run_placement_ablation
    result = run_placement_ablation(clients=12, duration_us=80_000)
    pd_local = result.find_row(data_plane="palladium", placement="co-located")
    pd_split = result.find_row(data_plane="palladium", placement="split")
    sp_local = result.find_row(data_plane="spright", placement="co-located")
    sp_split = result.find_row(data_plane="spright", placement="split")
    pd_hit = pd_split["latency_ms"] / pd_local["latency_ms"]
    sp_hit = sp_split["latency_ms"] / sp_local["latency_ms"]
    # kernel-stack data plane suffers more from lost locality (§2)
    assert sp_hit > pd_hit > 1.0


# ---------------------------------------------------------------------------
# Overload extension: the relay's SLO guard
# ---------------------------------------------------------------------------

def test_overload_relays_give_up_at_the_deadline(monkeypatch):
    from repro.experiments import ext_overload

    platforms = []

    class Recording(ServerlessPlatform):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            platforms.append(self)

    monkeypatch.setattr(ext_overload, "ServerlessPlatform", Recording)
    ext_overload.run_overload_point("spright", 2.0, duration_us=20_000.0,
                                    warmup_us=15_000.0)
    plat, = platforms
    assert (plat.runtimes["worker0"].invoke_timeout_us
            == ext_overload.DEADLINE_US)
    relays = [fn for name, fn in plat.functions.items()
              if name.startswith("relay-")]
    assert len(relays) == len(ext_overload.TENANTS)
    # At 2x a tail-dropping baseline sheds inner invokes; without the
    # guard each shed one would strand its relay's handler slot.
    assert sum(fn.invoke_timeouts for fn in relays) > 0


# ---------------------------------------------------------------------------
# Fig. 14 (compressed) smoke
# ---------------------------------------------------------------------------

def test_fig14_palladium_scales_up():
    from repro.experiments import run_fig14
    result = run_fig14("palladium", steps=4, time_scale=0.02, cost_scale=8.0)
    assert any("scale events" in n for n in result.notes)
    cores = [row[1] for row in result.rows]
    assert max(cores) > min(c for c in cores if c > 0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig12", "fig16", "table2"):
        assert name in out


def test_cli_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["figXX"])


def test_cli_no_args_shows_help(capsys):
    assert main([]) == 2


def test_cli_quick_table1(capsys):
    assert main(["--quick", "table1"]) == 0
    out = capsys.readouterr().out
    assert "PALLADIUM" in out


def test_cli_registry_complete():
    for key in ("fig09", "fig11", "fig12", "fig13", "fig14", "fig15",
                "fig16", "table1", "table2"):
        assert key in EXPERIMENTS


def test_every_experiment_has_a_gate_and_a_digest():
    golden = Path(__file__).parent / "golden" / "digests.json"
    digests = json.loads(golden.read_text())
    assert list(GATES) == list(EXPERIMENTS)
    assert sorted(digests) == sorted(EXPERIMENTS)
    assert all(len(d["result"]) == 64 for d in digests.values())


def test_fig15_gate_check_fails_on_a_doctored_outcome_instead_of_crashing():
    from repro.experiments import ExperimentResult

    columns = ["paper_time_s", "tenant-1_rps", "tenant-2_rps",
               "tenant-3_rps"]
    fcfs = ExperimentResult("Fig 15 - tenant bandwidth sharing (fcfs)",
                            columns=columns)
    fcfs.add_row(60.0, 30_000, 30_000, 30_000)
    dwrr = ExperimentResult("Fig 15 - tenant bandwidth sharing (dwrr)",
                            columns=columns)
    dwrr.add_row(60.0, 60_000, 10_000, 20_000)
    late = ExperimentResult(dwrr.name, columns=columns)
    late.add_row(120.0, 60_000, 10_000, 20_000)
    check, = GATES["fig15"].checks
    assert check([fcfs, dwrr]) == []
    # no (dwrr) panel at all, and a (dwrr) panel with no 40-80 s rows
    for doctored in ([fcfs], [fcfs, late]):
        failures = check(doctored)
        assert len(failures) == 1
        assert failures[0].startswith(
            "fig15: DWRR t1/t2 within (4, 8) over 40-80 s: point missing")
