"""The dataplane lint: no untyped meta plumbing outside repro.dataplane."""

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
    assert "poll_batch" in vs[0][3]
    vs = _violations(tmp_path, "completion = yield self.rnic.cq.get()\n")
    assert len(vs) == 1
    assert "cq.get()" in vs[0][3]


def test_batched_and_nonblocking_cq_access_is_legal(tmp_path):
    source = (
        "batch = yield cq.poll_batch()\n"
        "ready = cq.drain_ready(limit=16)\n"
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


def test_non_cq_get_calls_are_legal(tmp_path):
    # only a receiver *named* cq is the completion-queue idiom; plain
    # store/dict gets stay untouched
    source = (
        "item = yield inbox.get()\n"
        "value = mapping.get('key')\n"
    )
    assert _violations(tmp_path, source) == []
