"""Kill-and-cold-start: the baseline live migration competes against.

Instead of checkpointing the warm instance, tear it down and pay a
full container cold start on the target node — image pull + runtime
boot (``cost.cold_start_us``) and, implicitly, fresh RC connection
setup by the target engine when traffic resumes.  Requests in flight
at the old instance are simply lost (the platform's retry story, if
any, is the client's problem) — exactly the availability gap the
migration tentpole closes.
"""

from __future__ import annotations

__all__ = ["kill_and_cold_start"]


def kill_and_cold_start(platform, fn_id: str, dst_node: str):
    """Generator: relocate ``fn_id`` by killing it and cold-starting.

    Returns the replacement :class:`FunctionInstance`.  Downtime as
    seen by callers is the cold start plus however long the first
    request takes to find the re-published route.
    """
    env = platform.env
    instance = platform.functions.pop(fn_id)
    src_node = platform.coordinator.node_of(fn_id)
    platform.coordinator.function_terminated(fn_id)
    platform.runtimes[src_node].unregister_endpoint(fn_id)
    instance.crash()
    platform.cold_relocations[fn_id] += 1
    yield env.timeout(platform.cost.cold_start_us)
    replacement = platform.deploy(instance.spec, dst_node)
    return replacement
