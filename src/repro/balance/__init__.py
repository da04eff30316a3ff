"""Pluggable routing policies for worker selection.

``build_policy(config.routing_policy, config, rng)`` is the single
entry point the manager stub uses; everything else is the registry and
the implementations.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "ejection": ("OutlierEjector",),
    "policies": (
        "POLICIES", "BoundedLoadHashPolicy", "EwmaLatencyPolicy",
        "LeastOutstandingPolicy", "LotteryPolicy", "PolicyError",
        "PowerOfTwoPolicy", "RoundRobinPolicy", "RoutingPolicy",
        "WeightedCanaryPolicy", "available_policies", "build_policy",
        "parse_policy_spec", "request_key"),
})

__all__ = [
    "POLICIES",
    "BoundedLoadHashPolicy",
    "EwmaLatencyPolicy",
    "LeastOutstandingPolicy",
    "LotteryPolicy",
    "OutlierEjector",
    "PolicyError",
    "PowerOfTwoPolicy",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "WeightedCanaryPolicy",
    "available_policies",
    "build_policy",
    "parse_policy_spec",
    "request_key",
]
