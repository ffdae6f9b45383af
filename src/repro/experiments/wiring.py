"""Wiring a data plane's ingress, and the Online Boutique on any plane.

:func:`wire_ingress` builds any of the three cluster ingresses of
§4.1.3 in front of a platform; :func:`build_boutique` assembles the
boutique platform for one configuration of
:data:`~repro.baselines.DATA_PLANES`.  Experiments keep only their own
placement step and load.
"""

from __future__ import annotations

from typing import Dict

from ..baselines import DATA_PLANES
from ..ingress import FIngress, KIngress, PalladiumIngress, TcpWorkerAdapter
from ..platform import ElasticPlatform, ServerlessPlatform, Tenant
from ..workloads import BOUTIQUE_TENANT, boutique_resolver

__all__ = ["wire_ingress", "build_boutique"]

PROXIES = {"k-ingress": KIngress, "f-ingress": FIngress}


def wire_ingress(plat: ServerlessPlatform, kind: str, resolver,
                 tenants: Dict[str, int], cores: int,
                 stack: str = TcpWorkerAdapter.FSTACK, cost=None, **kwargs):
    """Build one cluster ingress in front of ``plat``.

    ``kind`` is ``"palladium"``, ``"f-ingress"`` or ``"k-ingress"``.  A
    Palladium ingress starts ``cores`` gateway workers, gets each
    ``{tenant: buffers}`` pool, subscribes to the coordinator's routes
    and is published as the external endpoint.  A proxy runs on
    ``cores`` cores and relays TCP to a worker0 adapter on ``stack``.
    ``cost`` overrides the ingress's cost model (default the
    platform's); ``kwargs`` go to the ingress unchanged.
    """
    env = plat.env
    cost = cost or plat.cost
    if kind == "palladium":
        ingress = PalladiumIngress(env, plat.cluster, plat.fabric, cost,
                                   resolver, min_workers=cores, **kwargs)
        for tenant, buffers in tenants.items():
            ingress.add_tenant(tenant, buffers=buffers)
        plat.coordinator.subscribe(ingress.routes)
        plat.register_external(ingress.AGENT, "ingress")
        return ingress
    if kind not in PROXIES:
        raise ValueError(f"unknown ingress kind {kind!r}")
    adapter = TcpWorkerAdapter(env, plat.runtimes["worker0"], plat.cost,
                               stack_kind=stack)
    return PROXIES[kind](env, plat.cluster, cost, resolver,
                         {"worker0": adapter}, lambda fn: "worker0",
                         cores=cores, **kwargs)


def build_boutique(config: str, env, cost, place,
                   platform=ServerlessPlatform, sidecar_us=None,
                   **palladium_kw):
    """Platform + ingress for the Online Boutique on ``config``.

    Builds ``platform`` with the configuration's engine, adds the
    boutique tenant and calls ``place(plat)`` to deploy the functions.
    The ingress is Palladium's (two workers, plus ``palladium_kw`` and,
    on an elastic platform, its service resolver), or a proxy on two
    F-stack cores or one kernel core.
    """
    plane = DATA_PLANES[config]
    plat = platform(env, cost=cost, engine_builder=plane.engine,
                    intra_ipc_us=plane.intra_ipc_us, sidecar_us=sidecar_us)
    plat.add_tenant(Tenant(BOUTIQUE_TENANT, pool_buffers=4096))
    place(plat)
    if plane.ingress == "palladium":
        kwargs = dict(palladium_kw, recv_buffers=256)
        if isinstance(plat, ElasticPlatform):
            kwargs["service_resolver"] = plat.resolve_service
        cores = 2
    else:
        kwargs = {}
        cores = 1 if plane.ingress == "k-ingress" else 2
    ingress = wire_ingress(plat, plane.ingress, boutique_resolver,
                           {BOUTIQUE_TENANT: 2048}, cores, plane.stack,
                           plane.ingress_cost(plat.cost), **kwargs)
    return plat, ingress
