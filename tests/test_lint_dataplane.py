"""The dataplane lint: idioms the refactors retired stay retired."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from lint_dataplane import check_file, check_tree  # noqa: E402


def _violations(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return check_file(path)


def test_repo_source_tree_is_clean():
    assert check_tree([REPO / "src" / "repro"]) == []


def test_flags_meta_attribute_access(tmp_path):
    vs = _violations(tmp_path, "x = descriptor.meta\n")
    assert len(vs) == 1
    assert ".meta" in vs[0][3]


def test_flags_meta_keyword_argument(tmp_path):
    vs = _violations(tmp_path, "wr = WorkRequest(opcode=1, meta={'dst': 'f'})\n")
    assert len(vs) == 1
    assert "meta=" in vs[0][3]


def test_flags_per_hop_dict_copy(tmp_path):
    vs = _violations(tmp_path, "header = dict(meta)\n")
    assert any("dict(meta)" in v[3] for v in vs)
    vs = _violations(tmp_path, "header = dict(descriptor.meta)\n")
    # both the .meta access and the dict() copy are reported
    assert len(vs) == 2


def test_flags_underscore_key_subscript(tmp_path):
    vs = _violations(tmp_path, "t = meta_dict['_trace']\n")
    assert len(vs) == 1
    assert "'_trace'" in vs[0][3]


def test_flags_underscore_key_get(tmp_path):
    vs = _violations(tmp_path, "ack = d.get('_ack')\n")
    assert len(vs) == 1
    assert "'_ack'" in vs[0][3]
    vs = _violations(tmp_path, "via = d.pop('_via', None)\n")
    assert len(vs) == 1


def test_flags_direct_rc_setup_charge(tmp_path):
    vs = _violations(tmp_path, "yield env.timeout(cost.rc_setup_us)\n")
    assert len(vs) == 1
    assert "rc_setup_us" in vs[0][3]
    assert "RdmaControlPlane" in vs[0][3]


def test_flags_direct_mr_register_charge(tmp_path):
    vs = _violations(
        tmp_path, "yield from cpu.execute(cost.mr_register_time(entries))\n")
    assert len(vs) == 1
    assert "mr_register_time" in vs[0][3]


def test_rdma_package_may_charge_controlplane_costs(tmp_path):
    pkg = tmp_path / "rdma"
    pkg.mkdir()
    path = pkg / "controlplane.py"
    path.write_text("t = cost.rc_setup_us + cost.mr_register_time(4)\n")
    assert check_file(path) == []
    # ...but the meta rules still apply inside repro/rdma
    path.write_text("x = descriptor.meta\n")
    assert len(check_file(path)) == 1


def test_controlplane_rule_applies_inside_dataplane(tmp_path):
    # repro/dataplane is exempt from the meta rules only
    pkg = tmp_path / "dataplane"
    pkg.mkdir()
    path = pkg / "engine.py"
    path.write_text("x = d['_trace']\nt = cost.rc_setup_us\n")
    vs = check_file(path)
    assert len(vs) == 1
    assert "rc_setup_us" in vs[0][3]


def test_flags_direct_spray_call(tmp_path):
    vs = _violations(tmp_path, "q = rss_queue(conn_id, queues)\n")
    assert len(vs) == 1
    assert "rss_queue" in vs[0][3]
    assert "IngressLoadBalancer" in vs[0][3]
    vs = _violations(tmp_path, "gw = nic.rss_pick(flow)\n")
    assert len(vs) == 1
    assert "rss_pick" in vs[0][3]


def test_ingress_and_hw_may_spray(tmp_path):
    for part in ("ingress", "hw"):
        pkg = tmp_path / part
        pkg.mkdir()
        path = pkg / "mod.py"
        path.write_text("q = rss_queue(conn_id, queues)\n")
        assert check_file(path) == []


def test_spray_rule_applies_inside_dataplane_and_rdma(tmp_path):
    # the meta/controlplane exemptions do not cover gateway selection
    for part in ("dataplane", "rdma"):
        pkg = tmp_path / part
        pkg.mkdir()
        path = pkg / "engine.py"
        path.write_text("q = rss_queue(conn_id, queues)\n")
        vs = check_file(path)
        assert len(vs) == 1
        assert "rss_queue" in vs[0][3]


def test_spray_definition_and_references_are_legal(tmp_path):
    # only *calls* are flagged; defining or re-exporting the primitive
    # (as repro/hw does) parses as def/Name nodes, not Call nodes
    vs = _violations(
        tmp_path,
        "def rss_queue(flow, queues):\n"
        "    return 0\n"
        "alias = rss_queue\n",
    )
    assert vs == []


def test_cost_definitions_are_legal(tmp_path):
    vs = _violations(
        tmp_path,
        "class CostModel:\n"
        "    rc_setup_us: float = 20_000.0\n"
        "    def mr_register_time(self, mtt_entries):\n"
        "        return 1.0\n",
    )
    assert vs == []


def test_dataplane_package_is_exempt(tmp_path):
    pkg = tmp_path / "dataplane"
    pkg.mkdir()
    path = pkg / "message.py"
    path.write_text("x = d['_trace']\n")
    assert check_file(path) == []


def test_clean_source_passes(tmp_path):
    vs = _violations(
        tmp_path,
        "from repro.dataplane import Message\n"
        "msg = Message(dst='fn')\n"
        "msg.trace = None\n"
        "meta_unrelated = {'key': 1}\n"
        "y = meta_unrelated['key']\n",
    )
    assert vs == []


def test_cli_entrypoint_green_on_repo():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_dataplane.py")],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_entrypoint_fails_on_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = d['_crossed_domain']\n")
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_dataplane.py"), str(bad)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "_crossed_domain" in proc.stdout


def test_flags_single_cqe_polling(tmp_path):
    vs = _violations(tmp_path, "completion = yield cq.get()\n")
    assert len(vs) == 1
    assert "Store.set_sink" in vs[0][3]
    vs = _violations(tmp_path, "completion = yield self.rnic.cq.get()\n")
    assert len(vs) == 1
    assert "cq.get()" in vs[0][3]


def test_batched_and_nonblocking_cq_access_is_legal(tmp_path):
    # a sink takes the CQ's items at the put; non-blocking access and
    # puts are not a consumer process
    source = (
        "cq.set_sink(on_cqe)\n"
        "maybe = cq.try_get()\n"
        "cq.put_nowait(completion)\n"
    )
    assert _violations(tmp_path, source) == []


def test_rdma_package_may_pull_single_cqes(tmp_path):
    pkg = tmp_path / "rdma"
    pkg.mkdir()
    path = pkg / "qp.py"
    path.write_text("completion = yield cq.get()\n")
    assert check_file(path) == []


def test_flags_engine_input_polling_in_dne(tmp_path):
    pkg = tmp_path / "dne"
    pkg.mkdir()
    path = pkg / "engine.py"
    path.write_text(
        "completion = yield self.rnic.cq.get()\n"
        "completion = yield cq.get()\n"
        "fn_id, descriptor = yield self.channel.server_inbox.get()\n"
    )
    vs = check_file(path)
    assert [v[1] for v in vs] == [1, 2, 3]
    assert all("Store.set_sink" in v[3] for v in vs)


def test_engine_sinks_and_polling_outside_dne_are_legal(tmp_path):
    pkg = tmp_path / "dne"
    pkg.mkdir()
    path = pkg / "engine.py"
    path.write_text(
        "self.rnic.cq.set_sink(self._on_cqe)\n"
        "self.channel.server_inbox.set_sink(self._on_descriptor)\n"
        "item = yield endpoint.inbox.get()\n"
    )
    assert check_file(path) == []
    # fig09's dne_loop consumes the Comch inbox itself, with no engine
    # in between
    source = "fn_id, descriptor = yield channel.server_inbox.get()\n"
    assert _violations(tmp_path, source) == []


def test_non_cq_get_calls_are_legal(tmp_path):
    # only a receiver *named* cq is the completion-queue idiom; plain
    # store/dict gets stay untouched
    source = (
        "item = yield inbox.get()\n"
        "value = mapping.get('key')\n"
    )
    assert _violations(tmp_path, source) == []


def test_flags_uncancelled_guarded_wait(tmp_path):
    vs = _violations(
        tmp_path, "yield AnyOf(self.env, [ack, self.env.timeout(t)])\n")
    assert len(vs) == 1
    assert "env.within" in vs[0][3]
    vs = _violations(tmp_path, "yield sim.AnyOf(env, (ev, env.timeout(5)))\n")
    assert len(vs) == 1


def test_flags_guard_timer_bound_to_a_name(tmp_path):
    # The two-statement form the client timeout used to take.
    source = (
        "def run(self):\n"
        "    timeout = self.env.timeout(self.timeout_us)\n"
        "    yield AnyOf(self.env, [response_event, timeout])\n"
    )
    vs = _violations(tmp_path, source)
    assert len(vs) == 1 and vs[0][1] == 3
    assert "env.within" in vs[0][3]


def test_timer_names_are_per_function(tmp_path):
    # A name bound to a timer in one function says nothing about the
    # same name in another.
    source = (
        "def arm(env):\n"
        "    deadline = env.timeout(5)\n"
        "    return deadline\n"
        "def wait(env, quiesce, deadline):\n"
        "    yield AnyOf(env, [quiesce, deadline])\n"
    )
    assert _violations(tmp_path, source) == []


def test_guarded_wait_through_within_is_legal(tmp_path):
    source = (
        "won = yield from env.within(ack, timeout_us)\n"
        "yield AnyOf(env, [first, second])\n"
        "yield AllOf(env, [a, env.timeout(3)])\n"
        "yield env.timeout(5)\n"
    )
    assert _violations(tmp_path, source) == []


def test_sim_package_may_race_raw_timers(tmp_path):
    pkg = tmp_path / "sim"
    pkg.mkdir()
    path = pkg / "core.py"
    path.write_text("yield AnyOf(self, (event, self.timeout(delay)))\n")
    assert check_file(path) == []
    # ...but the other rules still apply inside repro/sim
    path.write_text("x = descriptor.meta\n")
    assert len(check_file(path)) == 1


def test_flags_pushed_counter_and_gauge(tmp_path):
    source = (
        "tel.metrics.counter('engine_tx_total').labels(e, t).inc()\n"
        "env.telemetry.metrics.gauge('core_busy_us').labels(n).set(1.0)\n"
    )
    vs = _violations(tmp_path, source)
    assert [(v[1], "'.counter()'" in v[3], "'.gauge()'" in v[3])
            for v in vs] == [(1, True, False), (2, False, True)]
    assert all("MetricsRegistry.collect" in v[3] for v in vs)


def test_flags_pushed_gauge_through_a_bound_registry(tmp_path):
    # The old ServerlessPlatform.export_metrics form: registry bound first.
    source = (
        "def export_metrics(self, tel):\n"
        "    m = tel.metrics\n"
        "    busy = m.gauge('core_busy_us', labels=('node',))\n"
        "def other(m):\n"
        "    return m.gauge('x')\n"
    )
    vs = _violations(tmp_path, source)
    assert len(vs) == 1 and vs[0][1] == 3


def test_histograms_and_collectors_are_legal(tmp_path):
    source = (
        "tel.metrics.histogram('fn_exec_latency_us').labels(f).observe(v)\n"
        "tel.metrics.collect('engine_tx_total', 'TX.', ('engine',), read)\n"
        "c = collections.Counter(); c.counter(3)\n"
    )
    assert _violations(tmp_path, source) == []


def test_ingress_may_push_sli_counters_and_telemetry_gauges(tmp_path):
    sli = "tel.metrics.counter('ingress_requests_total')\n"
    other = "tel.metrics.counter('ingress_dropped_total')\n"
    gauge = "tel.metrics.gauge('x')\n"
    for part, legal, illegal in (("ingress", sli, (other, gauge)),
                                 ("telemetry", gauge, (sli, other))):
        pkg = tmp_path / part
        pkg.mkdir()
        path = pkg / "mod.py"
        path.write_text(legal)
        assert check_file(path) == []
        for source in illegal:
            path.write_text(source)
            assert len(check_file(path)) == 1
    path = tmp_path / "ingress" / "mod.py"
    path.write_text(other)
    assert "SLI counters only" in check_file(path)[0][3]


def test_flags_parallel_cycle_ledger_charge(tmp_path):
    vs = _violations(tmp_path, "tel.cycles.charge('copy', 1.0)\n")
    assert len(vs) == 1
    assert ".cycles.charge" in vs[0][3]
    assert "core.run" in vs[0][3]
    # a bound method is the same second statement of the cost
    vs = _violations(tmp_path, "charge = tel.cycles.charge\n")
    assert len(vs) == 1


def test_flags_charge_through_a_bound_ledger(tmp_path):
    source = (
        "def f(tel):\n"
        "    c = tel.cycles\n"
        "    c.charge('protocol', 2.0)\n"
        "def g(c):\n"
        "    c.charge('protocol', 2.0)\n"  # not bound to a ledger here
    )
    vs = _violations(tmp_path, source)
    assert [v[1] for v in vs] == [3]


def test_categorized_run_and_other_charges_are_legal(tmp_path):
    source = (
        "def f(core, cost, credits):\n"
        "    yield core.run(('protocol', cost.kernel_tcp_us))\n"
        "    credits.charge(1)\n"
        "    total = tel.cycles.total_us()\n"
    )
    assert _violations(tmp_path, source) == []


def test_hw_and_telemetry_may_charge_the_ledger(tmp_path):
    for part in ("hw", "telemetry"):
        pkg = tmp_path / part
        pkg.mkdir()
        path = pkg / "mod.py"
        path.write_text("tel.cycles.charge('app', 1.0)\n")
        assert check_file(path) == []
    pkg = tmp_path / "dne"
    pkg.mkdir()
    path = pkg / "engine.py"
    path.write_text("tel.cycles.charge('app', 1.0)\n")
    assert len(check_file(path)) == 1


def test_flags_a_resource_anywhere(tmp_path):
    pkg = tmp_path / "sim"  # no package is exempt, the kernel included
    pkg.mkdir()
    source = (
        "def f(env, sim):\n"
        "    cores = Resource(env, capacity=4)\n"
        "    dma = sim.Resource(env, capacity=1)\n"
    )
    vs = _violations(pkg, source)
    assert [v[1] for v in vs] == [2, 3]
    assert all("busy-until" in v[3] for v in vs)


def test_resource_claims_and_busy_until_stages_are_legal(tmp_path):
    source = (
        "def f(env, pool, core, link, dma):\n"
        "    yield pool.run(('app', 2.0))\n"
        "    yield core.run(('descriptor', 0.5))\n"
        "    yield dma.transfer(64)\n"
        "    yield env.timeout_at(link.claim(64))\n"
        "    busy = pool.total_busy_time()\n"
    )
    assert _violations(tmp_path, source) == []
