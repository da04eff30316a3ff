"""The SNS layer: the paper's primary contribution.

"SNS: Scalable Network Service support — incremental and absolute
scalability, worker load balancing and overflow management, front-end
availability, fault tolerance mechanisms, system monitoring and logging"
(Figure 2).

Assembly order for a new service (see ``examples/``):

1. build a :class:`~repro.sim.cluster.Cluster`;
2. register worker types in a
   :class:`~repro.tacc.registry.WorkerRegistry`;
3. write the service logic (an object with a
   ``handle(frontend, request)`` process generator returning a
   :class:`~repro.core.frontend.Response`);
4. wire them with an :class:`~repro.core.fabric.SNSFabric` and
   ``boot()``.

Scalability, load balancing, fault tolerance, bursts, and monitoring
come from this layer; the service author writes only workers and
dispatch logic.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("SNSConfig",),
    "component": ("Component",),
    "fabric": ("FabricError", "SNSFabric"),
    "frontend": ("FrontEnd", "Response"),
    "manager": ("Manager",),
    "manager_stub": ("DispatchError", "ManagerStub"),
    "monitor": ("Alert", "Monitor"),
    "worker_stub": ("WorkerStub",),
    "messages": (
        "BEACON_GROUP", "MONITOR_GROUP", "LoadReport", "ManagerBeacon",
        "MonitorReport", "Request", "WorkEnvelope", "WorkerAdvert"),
})

__all__ = [
    "Alert",
    "BEACON_GROUP",
    "Component",
    "DispatchError",
    "FabricError",
    "FrontEnd",
    "LoadReport",
    "MONITOR_GROUP",
    "Manager",
    "ManagerBeacon",
    "ManagerStub",
    "Monitor",
    "MonitorReport",
    "Request",
    "Response",
    "SNSConfig",
    "SNSFabric",
    "WorkEnvelope",
    "WorkerAdvert",
    "WorkerStub",
]
