"""Experiments: one module per paper figure/table, plus shared harness."""

from .ablations import run_multi_ingress, run_placement_ablation, run_sidecar_ablation
from .fig09_comch import run_fig09
from .fig11_offpath import run_fig11
from .fig12_primitives import run_fig12
from .fig13_ingress import run_fig13
from .fig14_scaling import run_fig14, run_fig14_panels
from .fig15_tenancy import run_fig15, run_tenancy
from .ext_conn_churn import (
    run_ceiling_point,
    run_churn_point,
    run_ext_conn_churn,
)
from .ext_cycle_breakdown import (
    run_cycle_point,
    run_ext_cycle_breakdown,
    run_trace_smoke,
)
from .ext_fault_recovery import run_ext_fault_recovery, run_fault_point
from .ext_gateway_scale import (
    gateway_scale_classes,
    run_ext_gateway_scale,
    run_gateway_scale_point,
)
from .ext_migration import (
    run_drain_point,
    run_ext_migration,
    run_migration_point,
)
from .ext_overload import (
    run_ext_overload,
    run_overload_isolation,
    run_overload_point,
)
from .ext_slo import (
    build_dashboard_bundle,
    run_critpath,
    run_slo_fault,
    run_slo_overload,
)
from .fig16_boutique import run_boutique_point, run_fig16, run_table2
from .report import from_json, load, save, to_csv, to_json
from . import validation
from .runner import ExperimentResult, format_table
from .table1_features import run_table1

__all__ = [
    "ExperimentResult",
    "format_table",
    "from_json",
    "load",
    "save",
    "to_csv",
    "to_json",
    "validation",
    "build_dashboard_bundle",
    "run_boutique_point",
    "run_critpath",
    "run_slo_fault",
    "run_slo_overload",
    "run_ceiling_point",
    "run_churn_point",
    "run_cycle_point",
    "run_ext_conn_churn",
    "run_drain_point",
    "run_ext_cycle_breakdown",
    "run_ext_fault_recovery",
    "run_ext_gateway_scale",
    "run_ext_migration",
    "run_gateway_scale_point",
    "gateway_scale_classes",
    "run_ext_overload",
    "run_fault_point",
    "run_migration_point",
    "run_overload_isolation",
    "run_overload_point",
    "run_trace_smoke",
    "run_fig09",
    "run_multi_ingress",
    "run_placement_ablation",
    "run_sidecar_ablation",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig14_panels",
    "run_fig15",
    "run_fig16",
    "run_table1",
    "run_table2",
    "run_tenancy",
]
