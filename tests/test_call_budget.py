"""The request path's call budget: Python-level calls per request.

After PRs 3, 13 and 18 the profile of the `stack` workloads is flat
(outside the kernel's own run loop no function holds 5 % of self time),
so what is left to defend is not a hot spot but a count: how many calls
`cProfile` sees per replayed request.  DESIGN.md 5l states the rule
that brought it down; this gate holds it there.

Every assertion is on a count, never on a clock, and the count is
exact for a seed on one Python version (it moves by about 1 % between
3.10 and 3.13, which is what the head-room is for).

    PYTHONPATH=src python tests/test_call_budget.py [--scale 0.25]
                                                    [--pstats-out FILE]

prints the figures (one line per workload) and, at the test's own
scale, the `jpeg_dispatch` table to paste below when a change is meant
to move them.
"""

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

SEED = 1997
#: a unit of ~1500 requests (194 HotBot queries): the four replays take
#: under ten seconds together, profiler included
SCALE = 0.05

#: calls per request at (SEED, SCALE), Python 3.11:
#: workload -> (at the parent of PR 19, recorded after it).  The
#: figures are larger than DESIGN.md's, which are at scale 0.25: a
#: short unit spreads the same beacons and reports over fewer requests
#: and runs on colder caches.
RECORDED = {
    "jpeg_dispatch": (396.1, 310.2),
    "overload_ramp": (376.4, 297.6),
    "transend_mix": (617.7, 546.0),
    "hotbot_scatter": (1996.0, 1959.8),
}
#: what a Python version may add to the recorded figure
HEAD_ROOM = 1.03

#: `jpeg_dispatch` at (SEED, SCALE): calls per request by callee, every
#: callee called at least once per five requests.  Not asserted on —
#: it is what a failure is explained against.
JPEG_DISPATCH_CALLEES = {
    "repro/sim/kernel.py:__init__": 25.92,
    "~:<method 'append' of 'list' objects>": 22.71,
    "~:<method 'append' of 'collections.deque' objects>": 17.65,
    "~:<method 'popleft' of 'collections.deque' objects>": 16.62,
    "repro/sim/kernel.py:_resume": 16.29,
    "~:<method 'send' of 'generator' objects>": 16.29,
    "~:<built-in method builtins.len>": 14.04,
    "~:<built-in method builtins.isinstance>": 10.50,
    "~:<built-in method _heapq.heappush>": 10.30,
    "repro/sim/kernel.py:timeout": 10.00,
    "~:<built-in method _heapq.heappop>": 9.12,
    "repro/core/frontend.py:_handle": 8.00,
    "repro/sim/kernel.py:succeed": 7.29,
    "repro/sim/network.py:reserve": 5.28,
    "~:<built-in method builtins.min>": 4.06,
    "repro/experiments/_harness.py:_distill": 4.00,
    "~:<method 'random' of '_random.Random' objects>": 3.71,
    "repro/sim/kernel.py:get": 3.16,
    "repro/sim/kernel.py:put_nowait": 3.16,
    "~:<built-in method builtins.max>": 3.06,
    "~:<method 'get' of 'dict' objects>": 3.02,
    "~:<built-in method builtins.hasattr>": 3.00,
    "repro/core/manager_stub.py:dispatch": 3.00,
    "repro/core/worker_stub.py:_service_loop": 3.00,
    "repro/sim/node.py:compute": 3.00,
    "repro/sim/network.py:transfer_delay": 2.28,
    "repro/sim/kernel.py:is_alive": 2.12,
    "~:<method 'values' of 'dict' objects>": 2.10,
    "repro/balance/policies.py:<listcomp>": 2.00,
    "repro/core/component.py:spawn": 2.00,
    "repro/core/worker_stub.py:_deliver": 2.00,
    "repro/distillers/base.py:mean": 2.00,
    "repro/sim/kernel.py:<dictcomp>": 2.00,
    "repro/sim/kernel.py:_abandon": 2.00,
    "repro/sim/kernel.py:_check": 2.00,
    "repro/sim/kernel.py:_detach": 2.00,
    "repro/sim/kernel.py:any_of": 2.00,
    "repro/sim/kernel.py:event": 2.00,
    "repro/tacc/content.py:__init__": 2.00,
    "repro/tacc/content.py:__len__": 2.00,
    "repro/tacc/content.py:__post_init__": 2.00,
    "repro/tacc/worker.py:param": 2.00,
    "repro/workload/playback.py:_request": 2.00,
    "~:<method 'remove' of 'list' objects>": 2.00,
    "~:<built-in method math.log>": 1.36,
    "~:<built-in method builtins.sum>": 1.28,
    "repro/sim/kernel.py:process": 1.00,
    "<string>:__init__": 1.00,
    "benchmarks/stack/harness.py:on_answer": 1.00,
    "benchmarks/stack/workloads.py:_grade_response": 1.00,
    "random.py:lognormvariate": 1.00,
    "random.py:normalvariate": 1.00,
    "repro/balance/policies.py:on_reply": 1.00,
    "repro/balance/policies.py:on_submit": 1.00,
    "repro/balance/policies.py:select": 1.00,
    "repro/core/fabric.py:<listcomp>": 1.00,
    "repro/core/fabric.py:submit": 1.00,
    "repro/core/frontend.py:_ladder_shed": 1.00,
    "repro/core/frontend.py:_should_shed": 1.00,
    "repro/core/frontend.py:submit": 1.00,
    "repro/core/manager_stub.py:<listcomp>": 1.00,
    "repro/core/manager_stub.py:candidates": 1.00,
    "repro/core/manager_stub.py:pick": 1.00,
    "repro/core/worker_stub.py:submit": 1.00,
    "repro/degrade/guards.py:earn": 1.00,
    "repro/distillers/base.py:predicted_image_reduction": 1.00,
    "repro/distillers/base.py:sample": 1.00,
    "repro/distillers/base.py:simulate": 1.00,
    "repro/distillers/base.py:work_estimate": 1.00,
    "repro/distillers/base.py:work_sample": 1.00,
    "repro/experiments/_harness.py:handle": 1.00,
    "repro/recovery/gray.py:inflation": 1.00,
    "repro/sim/rng.py:lognormal": 1.00,
    "repro/sim/rng.py:weighted_choice": 1.00,
    "repro/tacc/content.py:derive": 1.00,
    "repro/tacc/worker.py:content": 1.00,
    "repro/workload/playback.py:_launch": 1.00,
    "repro/workload/playback.py:observe_success": 1.00,
    "repro/workload/playback.py:play": 1.00,
    "~:<built-in method _bisect.bisect_right>": 1.00,
    "~:<built-in method math.exp>": 1.00,
    "~:<method 'sort' of 'list' objects>": 1.00,
    "~:<method 'update' of 'dict' objects>": 1.00,
    "repro/sim/kernel.py:now": 0.67,
    "repro/core/worker_stub.py:<genexpr>": 0.30,
    "repro/sim/kernel.py:schedule_call": 0.28,
    "repro/sim/kernel.py:length": 0.26,
    "repro/core/manager.py:<genexpr>": 0.23,
    "repro/sim/network.py:_expire": 0.22,
    "repro/core/manager_stub.py:refresh": 0.21,
}


def callee_label(filename, name):
    """A profile entry's name without what an unrelated edit moves
    (line numbers, the checkout's path)."""
    for anchor in ("repro/", "benchmarks/stack/"):
        _, found, tail = filename.rpartition("/" + anchor)
        if found:
            return f"{anchor}{tail}:{name}"
    return f"{filename.rsplit('/', 1)[-1]}:{name}"


def measure(workload, scale):
    """(calls per request, calls per request by callee, the profile) of
    one profiled unit — `run_unit` exactly as `run.py --trace 1`
    profiles it."""
    from benchmarks.stack.harness import run_unit
    from benchmarks.stack.workloads import WORKLOADS

    profile = cProfile.Profile()

    def around_replay(replay):
        profile.enable()
        try:
            replay()
        finally:
            profile.disable()

    unit = run_unit(WORKLOADS[workload], SEED, scale,
                    around_replay=around_replay, probe=False)
    assert unit.failed == 0
    stats = pstats.Stats(profile)
    by_callee = defaultdict(float)
    for (filename, _line, name), entry in stats.stats.items():
        by_callee[callee_label(filename, name)] += entry[1] / unit.submitted
    return stats.total_calls / unit.submitted, dict(by_callee), stats


def growth_report(by_callee, limit=10):
    grown = sorted(
        ((per_request - JPEG_DISPATCH_CALLEES.get(label, 0.0), label)
         for label, per_request in by_callee.items()), reverse=True)
    return "\n".join(
        f"  {growth:+8.2f}/req  {label}  (recorded "
        f"{JPEG_DISPATCH_CALLEES.get(label, 0.0):.2f})"
        for growth, label in grown[:limit] if growth > 0.0)


@pytest.mark.parametrize("workload", list(RECORDED))
def test_calls_per_request_stay_in_budget(workload):
    parent, recorded = RECORDED[workload]
    calls, by_callee, _ = measure(workload, SCALE)
    budget = min(recorded * HEAD_ROOM, parent)
    if calls < budget:
        return
    message = (f"{workload}: {calls:.1f} calls per request, budget "
               f"{budget:.1f} (recorded {recorded}, parent of PR 19 "
               f"{parent})")
    if workload == "jpeg_dispatch":
        message += ("\ncallees that grew most against the recorded "
                    "table:\n" + growth_report(by_callee))
    pytest.fail(message)


def test_the_recorded_table_is_the_recorded_figure():
    """The table leaves out the rare callees, so it sums to a little
    less than the figure it explains — and to no more."""
    total = sum(JPEG_DISPATCH_CALLEES.values())
    recorded = RECORDED["jpeg_dispatch"][1]
    assert 0.97 * recorded < total <= recorded + 0.5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--pstats-out", type=Path, default=None,
                        help="write the jpeg_dispatch profile here")
    args = parser.parse_args(argv)
    for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    for workload in RECORDED:
        calls, by_callee, stats = measure(workload, args.scale)
        print(f"{workload}: {calls:.1f} calls per request "
              f"(seed {SEED}, scale {args.scale:g}, "
              f"python {sys.version.split()[0]})")
        if workload == "jpeg_dispatch" and args.pstats_out is not None:
            stats.dump_stats(args.pstats_out)
        if workload == "jpeg_dispatch" and args.scale == SCALE:
            print("JPEG_DISPATCH_CALLEES = {")
            for label, per_request in sorted(
                    by_callee.items(), key=lambda row: (-row[1], row[0])):
                if per_request >= 0.2:
                    print(f'    "{label}": {per_request:.2f},')
            print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
