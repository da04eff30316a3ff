"""The closed-loop controller: ladder order, hold damping, dwell-based
de-escalation, and the hysteresis band between the thresholds.

Signals are injected so the tests drive pressure directly; the fabric
is never consulted.
"""

from repro.core.config import SNSConfig
from repro.degrade.controller import DegradationController
from repro.degrade.ladder import LEVELS, MAX_LEVEL, level_name
from repro.sim.cluster import Cluster


def make_controller(state=None):
    """Controller ticking at 0.5 s with injectable signals; escalations
    are held DEGRADE_HOLD_TICKS (2) ticks, 1 s, apart."""
    config = SNSConfig().validate()
    cluster = Cluster(seed=1)
    state = state if state is not None else {"pressure": 0.0}
    # queue target is 1.0 s, so queue_delay doubles as raw pressure
    controller = DegradationController(
        cluster, config, fabric=None,
        signals=lambda: (state["pressure"], 0.0, 0.0))
    controller.start()
    return cluster, controller, state


def run_to(cluster, t):
    cluster.run(until=t)


def test_ladder_names_cover_every_level():
    assert LEVELS[0] == "full"
    assert MAX_LEVEL == 5
    assert level_name(-3) == "full"
    assert level_name(99) == "deadline-shed"


def test_pressure_is_the_max_of_normalized_signals():
    cluster, controller, _ = make_controller()
    # targets: queue 1.0 s, util 0.9, shed 0.05
    assert controller.pressure_of(0.5, 0.0, 0.0) == 0.5
    assert controller.pressure_of(0.0, 0.9, 0.0) == 1.0
    assert controller.pressure_of(0.0, 0.0, 0.1) == 2.0
    assert controller.pressure_of(0.5, 0.45, 0.01) == 0.5


def test_escalation_walks_the_ladder_one_level_per_tick():
    """One level per tick that the 2-tick hold lets through."""
    cluster, controller, state = make_controller()
    state["pressure"] = 5.0
    expected = [
        (0.6, 1, "fidelity_reduced"),
        (1.6, 2, "serve_stale_active"),
        (2.6, 3, "relaxed_reads_active"),
        (3.6, 4, "priority_admission_active"),
        (4.6, 5, "deadline_shed_active"),
    ]
    reached = []
    for t, level, prop in expected:
        run_to(cluster, t)
        assert controller.level == level
        assert getattr(controller, prop)
        reached.append(prop)
        # everything below stays on, everything above stays off
        for _, other_level, other in expected:
            assert getattr(controller, other) == (other in reached), \
                f"at level {level}, {other} wrong"
    run_to(cluster, 6.0)
    assert controller.level == MAX_LEVEL  # clamped at the top rung
    assert controller.peak_level == MAX_LEVEL


def test_hold_ticks_space_out_successive_escalations():
    """One congested sample must not slam the ladder to its top rung:
    with a 2-tick hold, escalations land 1 s apart, not 0.5 s."""
    cluster, controller, state = make_controller()
    state["pressure"] = 5.0
    run_to(cluster, 0.6)
    assert controller.level == 1
    run_to(cluster, 1.1)
    assert controller.level == 1  # held
    run_to(cluster, 1.6)
    assert controller.level == 2


def test_deescalation_requires_a_dwell_of_calm_ticks():
    cluster, controller, state = make_controller()
    state["pressure"] = 5.0
    run_to(cluster, 1.6)
    assert controller.level == 2
    state["pressure"] = 0.0
    run_to(cluster, 2.1)
    assert controller.level == 2  # one calm tick: not yet
    run_to(cluster, 2.6)
    assert controller.level == 1  # dwell (2 ticks) satisfied
    run_to(cluster, 3.6)
    assert controller.level == 0  # two more calm ticks
    run_to(cluster, 5.0)
    assert controller.level == 0  # never goes below full


def test_pressure_between_thresholds_holds_the_level():
    """The hysteresis band: neither escalate nor count toward the
    calm dwell — mid pressure resets the calm counter."""
    cluster, controller, state = make_controller()
    state["pressure"] = 5.0
    run_to(cluster, 0.6)
    assert controller.level == 1
    state["pressure"] = 0.75  # exit (0.5) < pressure < enter (1.0)
    run_to(cluster, 5.0)
    assert controller.level == 1
    # one calm tick, then mid pressure again: dwell must restart
    state["pressure"] = 0.0
    run_to(cluster, 5.6)
    state["pressure"] = 0.75
    run_to(cluster, 6.1)
    state["pressure"] = 0.0
    run_to(cluster, 6.6)
    assert controller.level == 1  # still only one consecutive calm tick
    run_to(cluster, 7.1)
    assert controller.level == 0


def test_summary_reports_transitions_and_level_time():
    cluster, controller, state = make_controller()
    state["pressure"] = 5.0
    run_to(cluster, 1.6)
    state["pressure"] = 0.0
    run_to(cluster, 3.6)
    summary = controller.summary()
    assert summary["level"] == 0
    assert summary["peak_level"] == 2
    assert summary["peak_pressure"] == 5.0
    assert summary["ticks"] == 7
    moves = [(move["from"], move["to"])
             for move in summary["transitions"]]
    assert moves == [
        ("full", "reduced-fidelity"),
        ("reduced-fidelity", "serve-stale"),
        ("serve-stale", "reduced-fidelity"),
        ("reduced-fidelity", "full"),
    ]
    assert all(move["pressure"] >= 0.0
               for move in summary["transitions"])
    level_time = summary["level_time"]
    assert "full" in level_time  # always reported, even at zero
    assert level_time["reduced-fidelity"] > 0.0
    assert level_time["serve-stale"] > 0.0


def test_quiet_cluster_never_degrades():
    cluster, controller, state = make_controller()
    run_to(cluster, 10.0)
    assert controller.level == 0
    assert controller.peak_level == 0
    assert controller.summary()["transitions"] == []
