"""Silence-watchdog x maintenance interactions on the monitor.

``set_maintenance`` exists so a hot upgrade (Section 3.2.4) does not
page the operator about components it took down on purpose; clearing it
must grant a full silence grace period, not page instantly off the
stale ``last_seen``."""

from repro.core.monitor import SILENCE_THRESHOLD_S, Monitor
from repro.sim.cluster import Cluster

from tests.core.conftest import fast_config


def make_monitor():
    """A monitor checking for silence every 1 s, paging past
    SILENCE_THRESHOLD_S (5 s)."""
    assert SILENCE_THRESHOLD_S == 5.0
    cluster = Cluster(seed=11)
    cluster.add_nodes(1)
    monitor = Monitor(cluster, cluster.nodes["node0"], "monitor",
                      fast_config())
    monitor.start()
    return cluster, monitor


def test_no_page_while_component_in_maintenance():
    cluster, monitor = make_monitor()
    monitor._mark_seen("fe0")
    monitor.set_maintenance("fe0", True)
    cluster.run(until=20.0)
    assert monitor.pages() == []
    assert "mm" in monitor.render()


def test_clearing_maintenance_grants_a_full_grace_period():
    cluster, monitor = make_monitor()
    monitor._mark_seen("fe0")
    monitor.set_maintenance("fe0", True)
    cluster.run(until=8.0)          # silent well past the threshold
    assert monitor.pages() == []

    monitor.set_maintenance("fe0", False)   # resets last_seen to now
    cluster.run(until=12.9)         # 4.9s of silence: inside the grace
    assert monitor.pages() == []

    cluster.run(until=16.0)         # grace expired with no report
    pages = monitor.pages()
    assert len(pages) == 1
    assert pages[0].component == "fe0"


def test_reporting_again_clears_the_silence_and_raises_a_notice():
    cluster, monitor = make_monitor()
    monitor._mark_seen("fe0")
    cluster.run(until=7.5)          # paged at t=6: 6 s of silence
    assert len(monitor.pages()) == 1
    assert "!!" in monitor.render()

    monitor._mark_seen("fe0")       # it comes back
    notices = [alert for alert in monitor.alerts
               if alert.severity == "notice"]
    assert any("reporting again" in alert.message for alert in notices)
    assert "!!" not in monitor.render()

    # a fresh silence pages again (once), at t=13
    cluster.run(until=14.0)
    assert len(monitor.pages()) == 2


def test_maintenance_flipped_on_mid_silence_stops_the_clock():
    cluster, monitor = make_monitor()
    monitor._mark_seen("fe0")
    cluster.run(until=4.5)          # silent, but inside the threshold
    monitor.set_maintenance("fe0", True)
    cluster.run(until=30.0)
    assert monitor.pages() == []
