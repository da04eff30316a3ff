"""The set-up budget: calls and modules before a `stack` replay starts.

`setup_s` is the benchmark's wall time for a fresh interpreter to reach
a booted deployment with its inputs in hand
(`benchmarks/stack/run.py --setup-only`); on a shared host it moves by
more than its bound with the code unchanged.  This gate holds two
counts of the same set-up instead, which the host does not move:

- the calls set-up makes once its modules are imported, counted from
  the profiler's own entries as `tests/test_call_budget.py` counts
  them (`profile.getstats()`, one entry per code object);
- the `repro` modules set-up leaves in `sys.modules`.

Imports are counted as modules, not as calls: the import machinery's
calls depend on the bytecode cache.  So each workload's set-up runs
twice, each time in a fresh interpreter: once to learn the modules it
imports, and once with those imported first, under the profiler.
Set-up is `workload.build` and `workload.inputs` at unit seed 0 of
`SEED`, at the benchmark's scale, exactly as `--setup-only` runs them.
The cyclic garbage collector is off while the calls are counted: when
it runs depends on every allocation before it, and the finalizers it
runs are calls.

    PYTHONPATH=src python tests/test_setup_budget.py

prints the figures, one line per workload: what to paste below when a
change is meant to bring them down.
"""

import argparse
import cProfile
import gc
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

SEED = 1997
SCALE = 1.0

#: workload -> (calls after imports, `repro` modules), at (SEED, SCALE)
#: on `RECORDED_ON`
RECORDED = {
    "transend_mix": (522811, 60),
    "jpeg_dispatch": (218054, 62),
    "overload_ramp": (218105, 62),
    "hotbot_scatter": (1202792, 60),
}
RECORDED_ON = (3, 11)
#: what another Python version may add to the recorded calls (the
#: modules are the same on every version)
HEAD_ROOM = 1.03


def set_up(workload_name, preimport):
    """Run one set-up in this interpreter; returns the calls it made,
    the modules it imported and the `repro` modules then loaded."""
    for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.stack.loadgen import scaled
    from benchmarks.stack.run import unit_seed
    from benchmarks.stack.workloads import WORKLOADS

    for module in preimport:
        importlib.import_module(module)
    workload = WORKLOADS[workload_name]
    seed = unit_seed(SEED, 0)
    before = set(sys.modules)
    # no cyclic collection inside the count: when it runs depends on
    # every allocation before it, and the finalizers it runs are calls
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    profile.enable()
    workload.build(seed, SCALE)
    workload.inputs(seed, scaled(workload.steps, SCALE))
    profile.disable()
    gc.enable()
    return {
        "calls": sum(entry.callcount for entry in profile.getstats()),
        "imported": sorted(set(sys.modules) - before),
        "modules": sum(1 for name in sys.modules
                       if name == "repro" or name.startswith("repro.")),
    }


def fresh_set_up(workload_name, preimport=()):
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         workload_name, *preimport],
        capture_output=True, text=True, cwd=str(REPO_ROOT), timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload_name):
    """(calls after imports, `repro` modules) of one workload's set-up."""
    first = fresh_set_up(workload_name)
    warm = fresh_set_up(workload_name, first["imported"])
    assert warm["imported"] == [] and warm["modules"] == first["modules"]
    return warm["calls"], first["modules"]


@pytest.mark.parametrize("workload_name", list(RECORDED))
def test_setup_stays_in_budget(workload_name):
    recorded_calls, recorded_modules = RECORDED[workload_name]
    calls, modules = measure(workload_name)
    exact = sys.version_info[:2] == RECORDED_ON
    budget = recorded_calls if exact else recorded_calls * HEAD_ROOM
    assert modules <= recorded_modules, (
        f"{workload_name}: set-up leaves {modules} repro modules loaded, "
        f"recorded {recorded_modules}")
    assert calls <= budget, (
        f"{workload_name}: set-up makes {calls} calls after imports, "
        f"budget {budget:.0f} (recorded {recorded_calls} on Python "
        f"{RECORDED_ON[0]}.{RECORDED_ON[1]})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("preimport", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(set_up(args.child, args.preimport)))
        return 0
    for workload_name in RECORDED:
        calls, modules = measure(workload_name)
        print(f"{workload_name}: set-up makes {calls} calls after "
              f"imports and leaves {modules} repro modules loaded "
              f"(seed {SEED}, scale {SCALE:g}, "
              f"python {sys.version.split()[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
