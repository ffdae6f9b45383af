"""Multi-tenant overload protection: admission, bounds, backpressure.

Four cooperating pieces (all opt-in; the default data path is
byte-identical with QoS disabled):

* **Admission control** (:mod:`.admission`) — per-tenant token buckets
  and an SLO-aware gate at the ingress that rejects early when the
  estimated queueing delay would blow the tenant's deadline budget.
* **Bounded queues** (:mod:`.bounded`) — per-tenant scheduler capacity
  with a shed policy: tail-drop, or a CoDel-style sojourn-time
  dropper driven by sim time.
* **Credit-based backpressure** (:mod:`.credits`) — engines grant
  per-tenant credit windows to the gateway and local senders, shrinking
  them as DWRR backlog grows, so congestion propagates hop-by-hop.
* **Priority classes** (:mod:`.policy`) — guaranteed / standard /
  best-effort classes with graceful degradation: best-effort traffic is
  shed first and goodput is reported per class.
"""

from .admission import AdmissionGate, IngressQos, TokenBucket, qos_for_platform
from .bounded import (
    CodelState,
    DROP_CODEL,
    DROP_POLICIES,
    DROP_TAIL,
    QueueBounds,
)
from .credits import CreditController, CreditError
from .policy import (
    CLASS_HEADROOM,
    QOS_BEST_EFFORT,
    QOS_CLASSES,
    QOS_GUARANTEED,
    QOS_STANDARD,
    TenantQosPolicy,
)

__all__ = [
    "AdmissionGate",
    "CLASS_HEADROOM",
    "CodelState",
    "CreditController",
    "CreditError",
    "DROP_CODEL",
    "DROP_POLICIES",
    "DROP_TAIL",
    "IngressQos",
    "QOS_BEST_EFFORT",
    "QOS_CLASSES",
    "QOS_GUARANTEED",
    "QOS_STANDARD",
    "QueueBounds",
    "TenantQosPolicy",
    "TokenBucket",
    "qos_for_platform",
]
