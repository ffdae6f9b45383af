"""Admission control at the cluster edge.

Two layers, both evaluated *before* any buffer is pledged to a request:

* :class:`TokenBucket` — per-tenant rate policing with lazy sim-time
  refill (no background process, so an idle bucket costs nothing and
  perturbs nothing).
* :class:`AdmissionGate` — the SLO-aware gate: given an estimate of the
  queueing delay a request would face, reject it early when that
  estimate exceeds the tenant's deadline budget scaled by its class
  headroom (best-effort flinches first — graceful degradation).

:class:`IngressQos` bundles the gate with the per-node engine credit
windows so a gateway needs exactly one handle: ``admit`` to decide,
``acquire_credit`` to apply hop-by-hop backpressure before posting the
RDMA send toward a worker's engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .policy import TenantQosPolicy

__all__ = ["TokenBucket", "AdmissionGate", "IngressQos"]

#: default per-message engine service estimate (host-us) used to turn a
#: backlog depth into a queueing-delay estimate; roughly one DNE TX
#: iteration (ingest + proc + scheduling) on the wimpy core.
DEFAULT_SERVICE_US = 2.0


class TokenBucket:
    """Classic token bucket with lazy refill off a sim-time clock."""

    def __init__(self, rate_rps: float, burst: int,
                 clock: Callable[[], float]):
        if rate_rps <= 0:
            raise ValueError("token bucket rate must be positive")
        if burst < 1:
            raise ValueError("token bucket burst must be at least 1")
        self.rate_per_us = rate_rps / 1e6
        self.burst = float(burst)
        self.clock = clock
        self.tokens = float(burst)
        self._last_us = clock()

    def _refill(self) -> None:
        now = self.clock()
        if now > self._last_us:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last_us) * self.rate_per_us
            )
            self._last_us = now

    def try_take(self) -> bool:
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionGate:
    """Per-tenant rate policing + deadline-aware early rejection."""

    REASON_RATE = "rate"
    REASON_DEADLINE = "deadline"

    def __init__(self, env, policies: Dict[str, TenantQosPolicy]):
        self.env = env
        self.policies = policies
        self._buckets: Dict[str, TokenBucket] = {}
        for name, policy in policies.items():
            if policy.rate_rps is not None:
                self._buckets[name] = TokenBucket(
                    policy.rate_rps, policy.burst, clock=lambda: env.now
                )
        self.admitted = 0
        self.rejected = 0
        #: (tenant, reason) -> rejections, for per-class goodput reports
        self.rejections: Dict[tuple, int] = {}

    def admit(self, tenant: str,
              estimated_delay_us: float = 0.0) -> Optional[str]:
        """``None`` admits; otherwise the rejection reason.

        Unknown tenants (no policy) are always admitted — QoS is
        opt-in per tenant, like the rest of the subsystem.
        """
        policy = self.policies.get(tenant)
        if policy is None:
            self.admitted += 1
            return None
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.try_take():
            return self._reject(tenant, self.REASON_RATE)
        if (policy.deadline_us is not None
                and estimated_delay_us > policy.deadline_us * policy.headroom):
            return self._reject(tenant, self.REASON_DEADLINE)
        self.admitted += 1
        return None

    def _reject(self, tenant: str, reason: str) -> str:
        self.rejected += 1
        key = (tenant, reason)
        self.rejections[key] = self.rejections.get(key, 0) + 1
        return reason


class IngressQos:
    """Everything a gateway needs: gate + per-engine credit windows.

    ``engines`` maps worker node name -> its network engine; delay
    estimates read the engine's live backlog, credits come from the
    engine's :class:`~repro.qos.credits.CreditController` (``None``
    when the engine runs without credits — then ``acquire_credit`` is a
    no-op and only admission applies).
    """

    def __init__(self, env, policies: Dict[str, TenantQosPolicy], engines,
                 service_us_estimate: float = DEFAULT_SERVICE_US):
        self.env = env
        self.gate = AdmissionGate(env, policies)
        self.engines = engines
        self.service_us_estimate = service_us_estimate

    def estimated_delay_us(self, node: str) -> float:
        """Queueing delay a request would face at ``node``'s engine."""
        engine = self.engines.get(node)
        if engine is None:
            return 0.0
        return engine.qos_backlog() * self.service_us_estimate

    def admit(self, tenant: str, dst_node: Optional[str] = None
              ) -> Optional[str]:
        estimate = (self.estimated_delay_us(dst_node)
                    if dst_node is not None else 0.0)
        return self.gate.admit(tenant, estimated_delay_us=estimate)

    def acquire_credit(self, dst_node: str, tenant: str):
        """Generator: block until ``dst_node``'s engine grants a credit."""
        engine = self.engines.get(dst_node)
        credits = getattr(engine, "qos_credits", None) if engine else None
        if credits is not None:
            yield from credits.acquire(tenant)


def qos_for_platform(platform, default_deadline_us: Optional[float] = None,
                     service_us_estimate: float = DEFAULT_SERVICE_US,
                     ) -> IngressQos:
    """Build an :class:`IngressQos` from a platform's tenant roster."""
    policies = {
        name: TenantQosPolicy.from_tenant(tenant, default_deadline_us)
        for name, tenant in platform.tenants.items()
    }
    return IngressQos(platform.env, policies, platform.engines,
                      service_us_estimate=service_us_estimate)
