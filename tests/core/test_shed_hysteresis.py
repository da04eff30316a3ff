"""Front-end admission control: hysteresis for the binary shed switch
and the degradation ladder's top-rung sheds (priority, deadline).

The legacy single-threshold ``_should_shed`` flips on and off as each
shed relieves exactly the backlog that caused it; the
``admission_exit_backlog_s`` band is the regression target here.
"""

from types import SimpleNamespace

from repro.workload.trace import TraceRecord

from tests.core.conftest import fast_config, make_fabric, make_record


def make_frontend(**config_overrides):
    fabric = make_fabric(config=fast_config(**config_overrides))
    fabric.boot(n_frontends=1)
    fabric.cluster.run(until=2.0)
    frontend = fabric.alive_frontends()[0]
    # drive _should_shed directly: replace the inputs it reads
    frontend.netstack = SimpleNamespace(backlog_s=0.0)
    frontend.threads = SimpleNamespace(length=0)
    return frontend


def decisions(frontend, backlogs):
    out = []
    for backlog in backlogs:
        frontend.netstack.backlog_s = backlog
        out.append(frontend._should_shed())
    return out


def transitions(sequence):
    return sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)


#: a backlog sawtooth around the 2.0 s threshold: each shed relieves
#: just enough load to dip below it, then the queue builds right back
OSCILLATION = [2.5, 1.9] * 5


def test_single_threshold_switch_oscillates():
    frontend = make_frontend(admission_max_backlog_s=2.0)
    shed = decisions(frontend, OSCILLATION)
    assert shed[0] is True and shed[1] is False
    assert transitions(shed) == 9  # flips on every single sample


def test_hysteresis_band_sheds_once_per_episode():
    frontend = make_frontend(admission_max_backlog_s=2.0,
                             admission_exit_backlog_s=1.0)
    shed = decisions(frontend, OSCILLATION)
    assert all(shed)  # 1.9 s is above the exit: the episode continues
    assert transitions(shed) == 0
    # only a real recovery ends the episode
    assert decisions(frontend, [0.8]) == [False]
    assert decisions(frontend, [1.5]) == [False]  # below enter: admit


def test_free_thread_always_admits():
    frontend = make_frontend(admission_max_backlog_s=2.0,
                             admission_exit_backlog_s=1.0)
    frontend.threads.length = 3
    assert decisions(frontend, [50.0]) == [False]


def test_admission_disabled_by_default():
    frontend = make_frontend()
    assert decisions(frontend, [100.0]) == [False]


# -- ladder sheds (levels 4 and 5) --------------------------------------------

def batch_record():
    return TraceRecord(0.0, "crawler", "http://bench/batch.jpg",
                       "image/jpeg", 10240, priority="batch")


def ladder_stub(priority=False, deadline=False):
    return SimpleNamespace(priority_admission_active=priority,
                           deadline_shed_active=deadline)


def test_no_controller_admits_everything():
    frontend = make_frontend()
    assert frontend._ladder_shed(batch_record()) is None


def test_priority_admission_sheds_batch_only():
    frontend = make_frontend()
    frontend.degradation = ladder_stub(priority=True)
    assert frontend._ladder_shed(batch_record()) == "shed-priority"
    assert frontend._ladder_shed(make_record()) is None
    assert frontend.shed_priority == 1


def test_deadline_shed_refuses_doomed_requests():
    frontend = make_frontend()
    frontend.degradation = ladder_stub(deadline=True)
    # idle: wait estimate is zero, everything is admitted
    assert frontend._ladder_shed(make_record()) is None
    # 10 s of backlog and no free thread: excess 10 s over an 8 s
    # deadline => shed probability 1.0, deterministically refused
    frontend.netstack.backlog_s = 10.0
    frontend.threads.length = 0
    assert frontend._ladder_shed(make_record()) == "shed-deadline"
    assert frontend.shed_deadline == 1


def test_shed_reply_is_immediate_and_counted():
    fabric = make_fabric()
    fabric.boot(n_frontends=1)
    fabric.cluster.run(until=2.0)
    frontend = fabric.alive_frontends()[0]
    frontend.degradation = ladder_stub(priority=True)
    reply = frontend.submit(batch_record())
    assert reply.triggered  # no thread, no netstack: refused at the door
    response = reply.value
    assert response.status == "error"
    assert response.path == "shed-priority"
    assert frontend.shed == 1 and frontend.errors == 1
