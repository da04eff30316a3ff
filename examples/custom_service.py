"""Build-your-own-service: the README walkthrough, runnable.

The paper's reusability claim in its smallest form: a new service is one
worker class plus one dispatch generator.  Scaling, load balancing,
fault masking, and monitoring come from the SNS layer unchanged — we
prove it by killing the only worker mid-run and watching the manager
respawn it.

Run:  python examples/custom_service.py
"""

from repro.chaos.campaign import Faults, KillWorker
from repro.core import Response, SNSConfig, SNSFabric
from repro.sim import Cluster
from repro.tacc import Content, TACCRequest, Transformer, WorkerRegistry
from repro.tacc.sdk import check_worker
from repro.workload.trace import TraceRecord


class Shouter(Transformer):
    """The simplest possible transformation worker."""

    worker_type = "shouter"

    def transform(self, content, request):
        return content.derive(content.data.upper(), worker="shouter")


class ShoutService:
    """The Service layer: dispatch logic for the front end."""

    def handle(self, frontend, request):
        record = request.record
        content = Content(record.url, record.mime,
                          record.client_id.encode() + b" says hello")
        work = TACCRequest(inputs=[content])
        result = yield from frontend.stub.dispatch(request, work, "shouter")
        return Response(status="ok", path="shouted", content=result,
                        size_bytes=result.size)


def main() -> None:
    # 0. the SDK vets the worker before it ships
    fixture = TACCRequest(inputs=[Content("u", "text/plain", b"hi")])
    report = check_worker(Shouter, [fixture])
    print(report.render())
    assert report.passed

    # 1. hardware + registry + service + fabric
    cluster = Cluster(seed=1)
    cluster.add_nodes(6)
    registry = WorkerRegistry()
    registry.register_class(Shouter)
    fabric = SNSFabric(cluster, registry, SNSConfig(), ShoutService())
    fabric.boot(n_frontends=1)   # manager + monitor + FE; no workers yet
    cluster.run(until=2.0)

    # 2. first request: the manager spawns the first shouter on demand
    def record(index):
        return TraceRecord(0.0, f"client{index}",
                           f"http://svc/{index}", "text/plain", 100)

    response = cluster.env.run(until=fabric.submit(record(0)))
    print(f"\nfirst response: {response.content.data.decode()!r} "
          f"(worker spawned on demand at "
          f"t={cluster.env.now:.1f}s)")

    # 3. kill the worker (a fault row, fired as the next request
    #    arrives); the SNS layer routes around and respawns
    faults = Faults(fabric)
    faults.arm((KillWorker(at=cluster.env.now),))
    response = cluster.env.run(until=fabric.submit(record(1)))
    print(f"killed {faults.timeline[0].target} and resubmitted")
    print(f"second response: {response.content.data.decode()!r} "
          f"(served by {fabric.alive_workers()[0].name})")
    print(f"\nmanager saw {fabric.manager.worker_failures_detected} "
          f"worker failure(s) and performed {fabric.manager.spawns} "
          "spawns — none of which ShoutService had to know about.")


if __name__ == "__main__":
    main()
