"""Tests for the playback engine against a mock service."""

import math

import pytest

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord


def records_at(times):
    return [
        TraceRecord(t, f"c{i}", f"http://x/{i}.gif", "image/gif", 1000)
        for i, t in enumerate(times)
    ]


class MockService:
    """Responds after a fixed service time; can be told to fail."""

    def __init__(self, env, service_time=0.1, fail_urls=()):
        self.env = env
        self.service_time = service_time
        self.fail_urls = set(fail_urls)
        self.received = []

    def submit(self, record):
        self.received.append((self.env.now, record))
        event = self.env.event()
        if record.url in self.fail_urls:
            raise RuntimeError("service refused")
        self.env.process(self._respond(event, record))
        return event

    def _respond(self, event, record):
        yield self.env.timeout(self.service_time)
        event.succeed({"url": record.url})


def test_faithful_playback_preserves_spacing():
    env = Environment()
    service = MockService(env)
    engine = PlaybackEngine(env, service.submit)
    trace = records_at([100.0, 100.5, 102.0])
    env.process(engine.play(trace))
    env.run()
    submit_times = [t for t, _ in service.received]
    assert submit_times == pytest.approx([0.0, 0.5, 2.0])
    assert len(engine.completed()) == 3
    assert engine.latencies() == pytest.approx([0.1, 0.1, 0.1])


def test_playback_with_offset():
    env = Environment()
    service = MockService(env)
    engine = PlaybackEngine(env, service.submit)
    env.process(engine.play(records_at([0.0, 1.0]), time_offset=10.0))
    env.run()
    assert [t for t, _ in service.received] == pytest.approx([10.0, 11.0])


def test_constant_rate_mode_hits_requested_rate():
    env = Environment()
    service = MockService(env, service_time=0.01)
    rng = RandomStreams(5).stream("playback")
    engine = PlaybackEngine(env, service.submit, rng=rng)
    pool = records_at([0.0])
    env.process(engine.constant_rate(50.0, 60.0, pool))
    env.run()
    assert len(service.received) / 60.0 == pytest.approx(50.0, rel=0.15)


def test_constant_rate_requires_rng():
    env = Environment()
    engine = PlaybackEngine(env, MockService(env).submit)
    with pytest.raises(ValueError):
        next(engine.constant_rate(10.0, 1.0, records_at([0.0])))


@pytest.mark.parametrize("mode", ["constant_rate", "ramp"])
def test_rate_modes_reject_an_empty_record_pool(mode):
    """Nothing to cycle over used to surface as a ZeroDivisionError from
    ``index % len(records)`` at the first arrival, mid-run."""
    env = Environment()
    engine = PlaybackEngine(env, MockService(env).submit,
                            rng=RandomStreams(5).stream("playback"))
    player = (engine.constant_rate(10.0, 5.0, [])
              if mode == "constant_rate"
              else engine.ramp([(5.0, 10.0)], []))
    with pytest.raises(ValueError, match="records"):
        next(player)


def test_ramp_mode_changes_rate_per_step():
    env = Environment()
    service = MockService(env, service_time=0.01)
    rng = RandomStreams(5).stream("playback")
    engine = PlaybackEngine(env, service.submit, rng=rng)
    pool = records_at([0.0])
    env.process(engine.ramp([(30.0, 5.0), (30.0, 40.0)], pool))
    env.run()
    first_half = sum(1 for t, _ in service.received if t < 30.0)
    second_half = sum(1 for t, _ in service.received if t >= 30.0)
    assert second_half > 4 * first_half


def test_ramp_zero_rate_pauses():
    env = Environment()
    service = MockService(env)
    rng = RandomStreams(5).stream("playback")
    engine = PlaybackEngine(env, service.submit, rng=rng)
    env.process(engine.ramp([(10.0, 0.0), (10.0, 10.0)], records_at([0.0])))
    env.run()
    assert all(t >= 10.0 for t, _ in service.received)


def test_adapter_exception_recorded_as_failure():
    env = Environment()
    service = MockService(env, fail_urls={"http://x/0.gif"})
    engine = PlaybackEngine(env, service.submit)
    env.process(engine.play(records_at([0.0, 1.0])))
    env.run()
    assert len(engine.failed()) == 1
    assert "service refused" in engine.failed()[0].error
    assert len(engine.completed()) == 1


def test_a_raising_adapter_leaks_no_trace_hand_off():
    """The root span handed to a ``submit`` that raises is cleared with
    the failure: the next uninstrumented client's front-end span opens
    its own trace instead of hanging under the failed request's
    finished root."""
    from repro.obs.trace import install_tracer
    from tests.core.conftest import make_fabric, make_record

    fabric = make_fabric()
    fabric.boot(n_frontends=1, initial_workers={"test-worker": 1})
    cluster = fabric.cluster
    cluster.run(until=2.0)
    tracer = install_tracer(cluster, sample_every=1)

    def raising_submit(record):
        raise RuntimeError("adapter down")

    engine = PlaybackEngine(cluster.env, raising_submit)
    cluster.env.process(engine.play([make_record(0)]))
    cluster.run(until=3.0)
    assert len(engine.failed()) == 1
    cluster.env.run(until=fabric.submit(make_record(1)))
    [frontend] = [span for span in tracer.all_spans()
                  if span.name == "frontend"]
    assert frontend.parent_id is None
    assert len(tracer.spans) == 2


def test_timeout_marks_request_failed():
    env = Environment()
    service = MockService(env, service_time=10.0)
    engine = PlaybackEngine(env, service.submit, timeout_s=1.0)
    env.process(engine.play(records_at([0.0])))
    env.run()
    assert len(engine.failed()) == 1
    assert engine.failed()[0].error == "timeout"


def test_in_flight_tracking():
    env = Environment()
    service = MockService(env, service_time=5.0)
    engine = PlaybackEngine(env, service.submit)
    env.process(engine.play(records_at([0.0, 0.1, 0.2])))
    env.run(until=1.0)
    assert engine.in_flight == 3
    env.run()
    assert engine.in_flight == 0


@pytest.mark.parametrize("timeout_s", [None, 5.0])
def test_bounded_mode_stats_match_recorded_mode(timeout_s):
    """One request lifecycle whatever the flags: ``record_outcomes`` and
    ``timeout_s`` change what is recorded, never the aggregate."""
    times = [0.0, 0.5, 1.0]
    stats = {}
    for record_outcomes in (True, False):
        env = Environment()
        service = MockService(env, service_time=0.1,
                              fail_urls={"http://x/1.gif"})
        engine = PlaybackEngine(env, service.submit, timeout_s=timeout_s,
                                record_outcomes=record_outcomes)
        env.process(engine.play(records_at(times)))
        env.run()
        stats[record_outcomes] = engine.stats
    assert stats[True] == stats[False]
    for mode in (True, False):
        assert stats[mode].submitted == 3
        assert stats[mode].completed == 2
        assert stats[mode].failed == 1
        assert stats[mode].latency_sum == pytest.approx(0.2)
    # only the recorded mode keeps per-request outcomes
    env = Environment()
    engine = PlaybackEngine(env, MockService(env).submit,
                            record_outcomes=False)
    env.process(engine.play(records_at([0.0])))
    env.run()
    assert engine.outcomes == []


@pytest.mark.parametrize("mode, args, name", [
    ("constant_rate", (10.0, math.nan), "duration_s"),
    ("constant_rate", (10.0, -1.0), "duration_s"),
    ("constant_rate", (math.nan, 10.0), "rate_rps"),
    ("constant_rate", (0.0, 10.0), "rate_rps"),
    ("constant_rate", (math.inf, 10.0), "rate_rps"),
    ("ramp", ([(math.nan, 10.0)],), "duration_s"),
    ("ramp", ([(-5.0, 10.0)],), "duration_s"),
    ("ramp", ([(math.inf, 10.0)],), "duration_s"),
    ("ramp", ([(5.0, 10.0), (5.0, math.nan)],), "rate_rps"),
    ("ramp", ([(5.0, -1.0)],), "rate_rps"),
    ("timeout_s", (math.nan,), "timeout_s"),
    ("timeout_s", (0.0,), "timeout_s"),
    ("timeout_s", (math.inf,), "timeout_s"),
])
def test_non_finite_or_out_of_range_values_are_refused(mode, args, name):
    """Every ordered comparison with NaN is false: a NaN duration never
    ended a run, a negative ramp step silently submitted nothing, and a NaN
    timeout counted an answered request as timed out.  Each is refused
    before the first arrival, with a message naming the argument."""
    env = Environment()
    submit = MockService(env).submit
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        if mode == "timeout_s":
            PlaybackEngine(env, submit, timeout_s=args[0])
        else:
            engine = PlaybackEngine(
                env, submit, rng=RandomStreams(5).stream("playback"))
            next(getattr(engine, mode)(*args, records_at([0.0])))
