"""A kill is not a service error.

`Interrupt` subclasses `Exception`, so an ``except Exception`` arm on
the request path swallows the one a ``kill()`` throws into the
component's processes unless ``except Interrupt: raise`` comes first.
One test per arm that used to swallow it, and one for the origin
circuit breaker, which a kill in flight must leave untouched.
"""

from repro.core.config import SNSConfig
from repro.experiments._harness import build_bench_fabric

from tests.core.conftest import make_record

JPEG = "jpeg-distiller"


def booted_bench_fabric():
    fabric = build_bench_fabric(n_nodes=6, seed=3)
    fabric.boot(n_frontends=1, initial_workers={JPEG: 1})
    fabric.cluster.run(until=2.0)
    return fabric


def test_killed_front_end_serves_no_error_page():
    """The handler used to turn its own kill into an "exception" error
    page, count it, and live on as a zombie that reserved the page's
    bytes on the access link."""
    fabric = booted_bench_fabric()
    cluster = fabric.cluster
    frontend = fabric.frontends["fe0"]
    reply = fabric.submit(make_record())
    while frontend.active_requests == 0:
        cluster.env.step()
    # a thread is taken: inside the service's 27 ms cache-hit wait
    cluster.run(until=cluster.env.now + 0.001)
    sent_before = frontend.access_link.bytes_sent
    frontend.kill()
    cluster.run(until=cluster.env.now + 5.0)
    assert frontend.errors == 0
    assert frontend.responses_sent == 0
    assert frontend.access_link.bytes_sent == sent_before
    assert not reply.triggered


def test_killed_worker_stub_counts_no_failed_request():
    """The service loop used to book the request in service at the
    kill as a worker-code crash (``failed += 1``)."""
    fabric = booted_bench_fabric()
    cluster = fabric.cluster
    stub = next(iter(fabric.workers.values()))
    fabric.submit(make_record())
    while not stub.busy:
        cluster.env.step()
    stub.kill()
    cluster.run(until=cluster.env.now + 1.0)
    assert (stub.failed, stub.served) == (0, 0)
    assert not stub.busy


def test_killed_front_end_is_not_an_origin_failure():
    """A front end killed while its request waits on the origin must not
    count against the origin circuit breaker: one kill would open a
    breaker set to trip on the first failure.  The degradable bench
    service is the one service with a breaker."""
    fabric = build_bench_fabric(
        n_nodes=6, seed=3,
        config=SNSConfig(service_backend="degradable",
                         origin_breaker_failures=1))
    fabric.boot(n_frontends=1, initial_workers={JPEG: 1})
    fabric.cluster.run(until=2.0)
    cluster = fabric.cluster
    service = fabric.service
    breaker = service.origin_breaker
    fabric.submit(make_record())
    # a cold URL: the fetch queues on the origin link for >= 250 ms
    while service.origin_fetches == 0:
        cluster.env.step()
    cluster.run(until=cluster.env.now + 0.001)
    fabric.frontends["fe0"].kill()
    cluster.run(until=cluster.env.now + 1.0)
    assert service.originals == {}              # the fetch died with it
    assert breaker.consecutive_failures == 0
    assert breaker.state == breaker.CLOSED
