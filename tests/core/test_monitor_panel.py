"""Focused tests for the monitor's ASCII panel and paging paths.

The Section 3.1.7 monitor replaces the paper's Tk canvas with an ASCII
status panel and replaces "page or email the system operator" with
:class:`Alert` records.  These tests drive the panel's three markers
(ok / !! / mm), the silence watchdog, the recovery notice, and the
maintenance suppression directly, without a full fabric.
"""

import pytest

from repro.core.config import SNSConfig
from repro.core.monitor import Alert, Monitor
from repro.sim.cluster import Cluster

from tests.core.conftest import fast_config


def make_monitor(silence_threshold_s=5.0, on_alert=None):
    cluster = Cluster(seed=11)
    cluster.add_nodes(1)
    monitor = Monitor(cluster, cluster.nodes["node0"], "monitor",
                      fast_config(),
                      on_alert=on_alert,
                      silence_threshold_s=silence_threshold_s)
    monitor.start()
    return cluster, monitor


# -- paging on silence ----------------------------------------------------------


def test_watchdog_pages_once_per_silent_component():
    cluster, monitor = make_monitor(silence_threshold_s=3.0)
    monitor._mark_seen("fe0")
    monitor._mark_seen("worker.1")
    cluster.run(until=10.0)
    pages = monitor.pages()
    assert {alert.component for alert in pages} == {"fe0", "worker.1"}
    # the watchdog keeps polling every second, but each component is
    # paged exactly once until it reports again
    assert len(pages) == 2
    assert all("no reports" in alert.message for alert in pages)


def test_on_alert_callback_receives_page():
    seen = []
    cluster, monitor = make_monitor(silence_threshold_s=2.0,
                                    on_alert=seen.append)
    monitor._mark_seen("manager.1")
    cluster.run(until=5.0)
    assert len(seen) == 1
    alert = seen[0]
    assert isinstance(alert, Alert)
    assert alert.severity == "page"
    assert alert.component == "manager.1"


def test_component_reporting_again_raises_notice():
    cluster, monitor = make_monitor(silence_threshold_s=2.0)
    monitor._mark_seen("fe0")
    cluster.run(until=5.0)
    assert len(monitor.pages()) == 1
    monitor._mark_seen("fe0")  # it came back
    notices = [alert for alert in monitor.alerts
               if alert.severity == "notice"]
    assert len(notices) == 1
    assert "reporting again" in notices[0].message
    # and a fresh silence pages again
    cluster.run(until=10.0)
    assert len(monitor.pages()) == 2


def test_quiet_component_not_paged_before_threshold():
    cluster, monitor = make_monitor(silence_threshold_s=8.0)
    monitor._mark_seen("fe0")
    cluster.run(until=7.0)
    assert monitor.pages() == []


# -- maintenance suppression -----------------------------------------------------


def test_maintenance_suppresses_silence_page():
    cluster, monitor = make_monitor(silence_threshold_s=2.0)
    monitor._mark_seen("worker.1")
    monitor.set_maintenance("worker.1", True)
    cluster.run(until=10.0)
    assert monitor.pages() == []


def test_maintenance_end_restarts_silence_clock():
    cluster, monitor = make_monitor(silence_threshold_s=4.0)
    monitor._mark_seen("worker.1")
    monitor.set_maintenance("worker.1", True)
    cluster.run(until=10.0)
    monitor.set_maintenance("worker.1", False)
    # the grace period restarts at the maintenance end, not at the
    # long-gone last report
    cluster.run(until=13.0)
    assert monitor.pages() == []
    cluster.run(until=20.0)
    assert {alert.component
            for alert in monitor.pages()} == {"worker.1"}


# -- the ASCII panel -------------------------------------------------------------


def test_panel_markers_for_ok_silenced_and_maintenance():
    cluster, monitor = make_monitor(silence_threshold_s=2.0)
    monitor._mark_seen("silent.1")
    monitor._mark_seen("upgrading.1")
    monitor.set_maintenance("upgrading.1", True)
    cluster.run(until=6.0)
    monitor._mark_seen("fresh.1")
    panel = monitor.render()
    lines = {line.strip() for line in panel.splitlines()}
    assert any(line.startswith("[ok] fresh.1") for line in lines)
    assert any(line.startswith("[!!] silent.1") for line in lines)
    assert any(line.startswith("[mm] upgrading.1") for line in lines)


def test_panel_reports_ages_and_alert_totals():
    cluster, monitor = make_monitor(silence_threshold_s=2.0)
    monitor._mark_seen("silent.1")
    cluster.run(until=6.0)
    monitor._mark_seen("fresh.1")
    panel = monitor.render()
    assert "=== SNS monitor @ t=6.0s ===" in panel
    assert "last seen   0.0s ago" in panel    # fresh.1
    assert "last seen   6.0s ago" in panel    # silent.1
    # one page (silent.1) and the alert total counts it
    assert "alerts: 1 pages, 1 total" in panel


def test_panel_lists_components_sorted():
    cluster, monitor = make_monitor()
    for name in ("zeta.1", "alpha.1", "mid.1"):
        monitor._mark_seen(name)
    panel = monitor.render()
    order = [line.split()[1] for line in panel.splitlines()
             if line.strip().startswith("[")]
    assert order == ["alpha.1", "mid.1", "zeta.1"]
