"""Deterministic fault injection for the Palladium reproduction.

A :class:`FaultPlan` is a declarative, time-ordered schedule of fault
events (node crashes, engine crashes, link flaps, QP errors, memory
pool exhaustion); a :class:`FaultInjector` walks the plan against a
running platform, applying each fault and its recovery at the
scheduled simulation times.  Injection draws no randomness, so a plan
never perturbs workload draws and a seeded run replays byte-identical
— with or without faults.

An empty plan is free: the injector spawns no processes and the fault
hooks in the data plane reduce to attribute checks on default values.
"""

from .plan import FaultEvent, FaultPlan
from .injector import FaultInjector

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector"]
