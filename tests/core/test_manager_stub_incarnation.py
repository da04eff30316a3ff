"""Stale-incarnation beacon rejection (the healed-zombie-manager bug).

A manager that was partitioned away — not killed — keeps beaconing its
old incarnation after the heal.  Before this guard, such a beacon would
roll every stub's view back to the deposed manager's stale worker
table: resurrected dead hints at the front ends, and workers
re-registering with a manager that no longer owns the pool.  Stubs now
reject any beacon whose incarnation is below the highest they have
seen.
"""

from repro.core.messages import BEACON_GROUP, ManagerBeacon

from tests.core.conftest import fast_config, make_fabric


def _booted_fabric():
    fabric = make_fabric(config=fast_config())
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 2})
    fabric.cluster.run(until=3.0)
    return fabric


def _beacon(manager, incarnation, sent_at, adverts=None):
    return ManagerBeacon(manager_id=manager.name,
                         incarnation=incarnation, manager=manager,
                         sent_at=sent_at, adverts=adverts or {})


def test_manager_stub_rejects_lower_incarnation_beacon():
    fabric = _booted_fabric()
    stub = fabric.alive_frontends()[0].stub
    manager = fabric.manager
    current = stub.manager_incarnation
    adverts_before = dict(stub.adverts)
    seen_at = stub.last_beacon_at

    stale = _beacon(manager, current - 1, fabric.cluster.env.now)
    assert stub.observe_beacon(stale) is False
    # nothing moved: not the incarnation, not the hints, not liveness
    assert stub.manager_incarnation == current
    assert stub.last_beacon_at == seen_at
    assert set(stub.adverts) == set(adverts_before)
    assert stub.stale_beacons_rejected == 1


def test_manager_stub_accepts_equal_and_higher_incarnations():
    fabric = _booted_fabric()
    stub = fabric.alive_frontends()[0].stub
    manager = fabric.manager
    current = stub.manager_incarnation
    now = fabric.cluster.env.now

    # the same incarnation refreshes liveness without re-registration
    assert stub.observe_beacon(_beacon(manager, current, now)) is False
    assert stub.last_beacon_at == now
    # a successor's higher incarnation is a new manager: re-register
    assert stub.observe_beacon(_beacon(manager, current + 1, now)) is True
    assert stub.manager_incarnation == current + 1
    assert stub.stale_beacons_rejected == 0
    # and now the old incarnation is the stale one
    assert stub.observe_beacon(_beacon(manager, current, now)) is False
    assert stub.stale_beacons_rejected == 1


def test_worker_stub_ignores_stale_beacons_on_the_wire():
    """End to end through the multicast group: a deposed manager's
    lower-incarnation beacon must not make workers re-register with
    it."""
    fabric = _booted_fabric()
    manager = fabric.manager
    worker = fabric.alive_workers()[0]
    assert worker._highest_incarnation == manager.incarnation

    zombie = _beacon(manager, manager.incarnation - 1,
                     fabric.cluster.env.now)
    fabric.cluster.multicast.group(BEACON_GROUP).publish(
        zombie, sender=manager.name)
    fabric.cluster.run(until=fabric.cluster.env.now + 1.0)
    assert worker._highest_incarnation == manager.incarnation
    # the real manager still owns the registration
    assert worker.name in manager.workers
    # the same wire carries a higher incarnation through: the zombie's
    # beacon arrived and was ignored, not lost
    successor = _beacon(manager, manager.incarnation + 1,
                        fabric.cluster.env.now)
    fabric.cluster.multicast.group(BEACON_GROUP).publish(
        successor, sender=manager.name)
    fabric.cluster.run(until=fabric.cluster.env.now + 1.0)
    assert worker._highest_incarnation == manager.incarnation + 1


def test_lease_bound_rides_the_beacon():
    """Soft managers promise no staleness bound (lease_until None);
    a lease-carrying beacon installs the bound the stub stalls on."""
    fabric = _booted_fabric()
    stub = fabric.alive_frontends()[0].stub
    manager = fabric.manager
    now = fabric.cluster.env.now
    assert stub.lease_until is None
    assert stub.hints_usable(now + 1e9)  # soft state: no bound

    leased = ManagerBeacon(manager_id=manager.name,
                           incarnation=stub.manager_incarnation,
                           manager=manager, sent_at=now, adverts={},
                           lease_until=now + 2.0)
    stub.observe_beacon(leased)
    assert stub.lease_until == now + 2.0
    assert stub.hints_usable(now + 1.9)
    assert not stub.hints_usable(now + 2.1)
