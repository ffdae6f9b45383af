"""Tests for configuration, topology specs, and assorted small APIs."""

import pytest

from repro.config import (
    ClusterSpec,
    CostModel,
    NodeSpec,
    SEC,
    cost_model_overrides,
    describe,
)
from repro.hw import Cluster, build_cluster
from repro.sim import Environment


# ---------------------------------------------------------------------------
# CostModel
# ---------------------------------------------------------------------------

def test_cost_model_is_frozen():
    cost = CostModel()
    with pytest.raises(AttributeError):
        cost.rnic_op_us = 99.0


def test_cost_model_overrides():
    cost = cost_model_overrides(rnic_op_us=1.5)
    assert cost.rnic_op_us == 1.5
    assert cost.fstack_us == CostModel().fstack_us  # others untouched


def test_cost_model_describe_covers_all_fields():
    cost = CostModel()
    flat = describe(cost)
    assert flat["rnic_op_us"] == cost.rnic_op_us
    assert len(flat) == len(cost.__dataclass_fields__)


def test_cost_scaled_touches_processing_not_wire():
    base = CostModel()
    scaled = base.scaled(3.0)
    assert scaled.kernel_tcp_us == base.kernel_tcp_us * 3
    assert scaled.fstack_us == base.fstack_us * 3
    assert scaled.dne_tx_proc_us == base.dne_tx_proc_us * 3
    assert scaled.fabric_bytes_per_us == base.fabric_bytes_per_us
    assert scaled.rdma_base_latency_us == base.rdma_base_latency_us


def test_wire_and_endhost_helpers():
    cost = CostModel()
    assert cost.wire_time(25_000) == pytest.approx(1.0)
    assert cost.endhost_time(0) == 0.0
    assert cost.endhost_time(10_000) == pytest.approx(
        10_000 * cost.endhost_per_byte_us
    )


def test_copy_time_monotone_in_size_and_coldness():
    cost = CostModel()
    assert cost.copy_time(4096) > cost.copy_time(64)
    assert cost.copy_time(4096, cached=False) > cost.copy_time(4096, cached=True)


def test_soc_dma_time():
    cost = CostModel()
    assert cost.soc_dma_time(0) == cost.soc_dma_base_us
    assert cost.soc_dma_time(3500) == pytest.approx(cost.soc_dma_base_us + 1.0)


def test_unit_constants():
    assert SEC == 1_000_000.0


# ---------------------------------------------------------------------------
# Node / cluster specs and topology
# ---------------------------------------------------------------------------

def test_node_spec_testbed_defaults():
    spec = NodeSpec()
    assert spec.cpu_cores == 80        # two 40-core CPUs (§4)
    assert spec.cpu_ghz == 3.7
    assert spec.dpu_cores == 8         # Bluefield-2 A72 complex
    assert spec.dpu_ghz == 2.0
    assert spec.hugepage_bytes == 2 * 1024 * 1024


def test_cluster_spec_roles():
    spec = ClusterSpec()
    assert spec.worker_spec(0).has_dpu
    assert not spec.ingress_spec().has_dpu
    assert not spec.client_spec().has_dpu


def test_cluster_has_four_nodes():
    cluster = build_cluster(Environment(), CostModel())
    assert set(cluster.nodes) == {"worker0", "worker1", "ingress", "client"}
    assert len(cluster.workers) == 2


def test_workers_have_dpu_and_dma():
    cluster = build_cluster(Environment(), CostModel())
    for worker in cluster.workers:
        assert worker.dpu is not None
        assert worker.soc_dma is not None
    assert cluster.ingress_node.dpu is None


def test_fabric_links_cover_workers_and_ingress():
    cluster = build_cluster(Environment(), CostModel())
    cluster.fabric_link("worker0", "worker1")
    cluster.fabric_link("worker1", "worker0")
    cluster.fabric_link("worker0", "ingress")
    cluster.fabric_link("ingress", "worker1")
    with pytest.raises(KeyError):
        cluster.fabric_link("worker0", "worker0")


def test_custom_worker_count():
    cluster = build_cluster(Environment(), CostModel(), workers=3)
    assert len(cluster.workers) == 3
    cluster.fabric_link("worker2", "worker0")


def test_ether_links_exist():
    env = Environment()
    cluster = build_cluster(env, CostModel())
    done = []

    def proc():
        yield from cluster.ether_up.transmit(100)
        yield from cluster.ether_down.transmit(100)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done


def test_link_utilization_accounting():
    env = Environment()
    cluster = build_cluster(env, CostModel())
    link = cluster.fabric_link("worker0", "worker1")
    arrivals = []

    def proc():
        yield from link.transmit(250_000)  # 10 us serialization
        arrivals.append(env.now)

    env.process(proc())
    env.process(proc())  # back to back: serializes behind the first
    env.run()
    ser = 250_000 / link.bytes_per_us
    assert arrivals == [ser + link.base_latency_us,
                        2 * ser + link.base_latency_us]
    assert link.frames == 2 and link.bytes_sent == 500_000


def test_invalid_link_rate_rejected():
    from repro.hw import Link
    with pytest.raises(ValueError):
        Link(Environment(), 0, 1.0)
