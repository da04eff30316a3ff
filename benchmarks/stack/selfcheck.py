"""Planted-slowdown self-check: proof that the benchmark measures the
program.

    PYTHONPATH=src python -m benchmarks.stack.selfcheck

For one public entry point per layer, plant a fixed busy-wait in front
of it (from here, without editing the program) and check, at reduced
size, that

* `req_per_s` on the workload where the layer is hot falls by the
  predicted amount: calls x spin, within 25%;
* on the workload that (mostly) bypasses the layer it stays within the
  `req_per_s` bound of what its own, smaller call count predicts;
* the host ledger charges the added time to that layer, within 25%
  (the other layers' time tells how much the host's speed drifted
  between the two profiles, and is divided out);
* every simulated result and exact count is bit-identical to the
  unplanted run: the plant slowed the simulator, not the simulation.

Replay times are compared at the reference host speed (see
`harness.host_probe`), the planted busy-wait's cost included.  That
restatement must not let a slower program hide: a sixth plant spends
memory instead of time (every `Environment.schedule_call` keeps a batch
of small objects alive, which about doubles the heap) and the check is
that the host-speed probe reads the same beside it, so `req_per_s`
falls by what the clock says.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence

from repro.core.manager_stub import ManagerStub
from repro.hotbot.service import HotBot
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.transend.cachesys import CacheSubsystem

from benchmarks.stack import ledger
from benchmarks.stack.harness import Unit, run_unit
from benchmarks.stack.run import TRACE_SCALE, unit_seed
from benchmarks.stack.workloads import WORKLOADS

SEED = 1997
REPEATS = 5
TOLERANCE = 0.25
#: how far `req_per_s` may move on the workload a plant bypasses
FLAT_TOLERANCE = 0.10
#: the memory plant: objects kept alive per call, and how far the
#: host-speed probe may move beside it
HOARD_OBJECTS = 64
PROBE_TOLERANCE = 0.10


@dataclass(frozen=True)
class Plant:
    layer: str
    owner: type
    method: str
    #: busy-wait per call; sized to cost the hot workload about 80%, several
    #: times what two paired replays differ by on this box
    spin_us: float
    hot: str
    #: the workload that calls this entry point least
    other: str


PLANTS: Sequence[Plant] = (
    Plant("cache", CacheSubsystem, "lookup", 100.0,
          "transend_mix", "jpeg_dispatch"),
    Plant("core.manager_stub", ManagerStub, "dispatch", 160.0,
          "jpeg_dispatch", "hotbot_scatter"),
    Plant("sim.network", Network, "transfer_delay", 40.0,
          "hotbot_scatter", "transend_mix"),
    Plant("hotbot", HotBot, "query", 1100.0,
          "hotbot_scatter", "jpeg_dispatch"),
    Plant("sim.kernel", Environment, "schedule_call", 150.0,
          "transend_mix", "hotbot_scatter"),
)


def _spin(iterations: int) -> None:
    # no calls inside the loop, so a profiler sees one function with
    # all of the time as its own
    for _ in range(iterations):
        pass


def spin_charged_to(source_file: str) -> Callable[[int], None]:
    """A copy of the busy-wait whose code claims to live in
    ``source_file``, so the ledger books its time where a real slowdown
    of that file would land."""
    code = _spin.__code__.replace(co_filename=source_file)
    return types.FunctionType(code, globals(), "planted_spin")


def iterations_for(spin: Callable[[int], None], spin_us: float) -> int:
    """Loop iterations that busy-wait roughly ``spin_us`` right now."""
    probe = 200_000
    started = time.perf_counter()
    spin(probe)
    per_iteration_s = (time.perf_counter() - started) / probe
    return max(1, int(spin_us * 1e-6 / per_iteration_s))


@contextmanager
def planted(owner: type, method: str,
            extra: Callable[[], None]) -> Iterator[Dict[str, Any]]:
    """Run ``extra`` in front of every call of ``owner.method`` for the
    duration; yields a running record of the calls made and the host
    seconds ``extra`` took."""
    original = getattr(owner, method)
    record: Dict[str, Any] = {"calls": 0, "spin_s": 0.0, "replays": []}
    clock = time.perf_counter

    @functools.wraps(original)
    def slowed(*args: Any, **kwargs: Any) -> Any:
        started = clock()
        extra()
        record["calls"] += 1
        record["spin_s"] += clock() - started
        return original(*args, **kwargs)

    setattr(owner, method, slowed)
    try:
        yield record
    finally:
        setattr(owner, method, original)


def busy_wait(plant: Plant) -> Callable[[], None]:
    """``plant``'s busy-wait, booked to the file its entry point is in."""
    spin = spin_charged_to(sys.modules[plant.owner.__module__].__file__)
    return functools.partial(spin, iterations_for(spin, plant.spin_us))


class _Hoarded:
    __slots__ = ("payload",)

    def __init__(self) -> None:
        self.payload = [None]


Hook = Callable[[Callable[[], None]], None]


def counting(record: Dict[str, Any], inner: Hook = None) -> Hook:
    """An `around_replay` hook that books, per replay, the planted calls
    made and seconds spun during the replay itself (boot and settling
    also cross the entry points, but are not part of the timed
    section)."""
    def hook(replay: Callable[[], None]) -> None:
        calls, spin_s = record["calls"], record["spin_s"]
        replay() if inner is None else inner(replay)
        record["replays"].append((record["calls"] - calls,
                                  record["spin_s"] - spin_s))
    return hook


def replay(workload_name: str, hook: Hook = None,
           probe: bool = True) -> Unit:
    return run_unit(WORKLOADS[workload_name], unit_seed(SEED, 0),
                    TRACE_SCALE, around_replay=hook, probe=probe)


def main() -> int:
    failures: List[str] = []

    def check(ok: bool, line: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {line}")
        if not ok:
            failures.append(line)

    print(f"scale {TRACE_SCALE:g}; each planted replay is paired with an "
          f"unplanted one run just before it,\n{REPEATS} pairs per check, "
          f"times at reference host speed")
    base_ledger: Dict[str, ledger.HostLedger] = {}
    for name in WORKLOADS:
        replay(name)  # warm-up, discarded
        _, base_ledger[name] = ledger.profiled(
            lambda hook, name=name: replay(name, hook, probe=False))

    for plant in PLANTS:
        print(f"\n{plant.owner.__name__}.{plant.method} + "
              f"{plant.spin_us:g} us  (layer {plant.layer})")
        for role, name in (("hot", plant.hot), ("other", plant.other)):
            pairs = []
            for _ in range(REPEATS):
                base = replay(name)
                with planted(plant.owner, plant.method,
                             busy_wait(plant)) as record:
                    unit = replay(name, counting(record))
                calls, spin_s = record["replays"][-1]
                pairs.append((base, unit, spin_s * unit.host_speed))
            check(all(unit.exact() == base.exact()
                      for base, unit, _ in pairs),
                  f"{name}: simulated results and exact counts unchanged")
            base_s = statistics.median(
                base.replay_ref_s for base, _, _ in pairs)
            planted_s = statistics.median(spun for _, _, spun in pairs)
            # the slowdown beyond exactly the planted time: zero, if
            # req_per_s fell by the planted amount and no more
            excess_s = statistics.median(
                unit.replay_ref_s - spun - base.replay_ref_s
                for base, unit, spun in pairs)
            allowed = (TOLERANCE * planted_s if role == "hot"
                       else FLAT_TOLERANCE * base_s)
            check(abs(excess_s) <= allowed,
                  f"{name}: {calls} calls; replay {base_s:.3f} s "
                  f"{planted_s / base_s:+.0%} planted = {planted_s:.3f} s, "
                  f"unexplained {excess_s:+.3f} s (allowed {allowed:.3f})")
        with planted(plant.owner, plant.method,
                     busy_wait(plant)) as record:
            _, host = ledger.profiled(
                lambda hook: replay(plant.hot, counting(record, hook),
                                    probe=False))
        _, planted_s = record["replays"][-1]
        before = base_ledger[plant.hot]
        layer_s, before_s = (host.self_s[plant.layer],
                             before.self_s[plant.layer])
        drift = (host.total_s - layer_s) / (before.total_s - before_s)
        charged = layer_s - before_s * drift
        check(abs(charged - planted_s) <= TOLERANCE * planted_s,
              f"{plant.hot}: ledger charges {plant.layer} {charged:.3f} s "
              f"more, planted {planted_s:.3f} s")

    print(f"\nEnvironment.schedule_call + {HOARD_OBJECTS} objects kept alive "
          f"per call  (memory, not time)")
    pairs = []
    for _ in range(REPEATS):
        base = replay("transend_mix")
        hoard: List[Any] = []
        with planted(Environment, "schedule_call", lambda: hoard.append(
                [_Hoarded() for _ in range(HOARD_OBJECTS)])) as record:
            unit = replay("transend_mix", counting(record))
        _, hoard_s = record["replays"][-1]
        pairs.append((base, unit, hoard_s, len(hoard) * HOARD_OBJECTS))
    check(all(unit.exact() == base.exact() for base, unit, _, _ in pairs),
          "transend_mix: simulated results and exact counts unchanged")
    probe_shift = statistics.median(
        unit.host_speed / base.host_speed for base, unit, _, _ in pairs) - 1
    check(abs(probe_shift) <= PROBE_TOLERANCE,
          f"transend_mix: {pairs[-1][3]} objects hoarded; the host-speed "
          f"probe reads {probe_shift:+.1%} beside them "
          f"(allowed {PROBE_TOLERANCE:.0%})")
    slowdown = statistics.median(
        unit.replay_ref_s / base.replay_ref_s for base, unit, _, _ in pairs)
    clocked = statistics.median(
        (base.replay_s + hoard_s) / base.replay_s
        for base, _, hoard_s, _ in pairs)
    check(slowdown >= 1 + (1 - TOLERANCE) * (clocked - 1),
          f"transend_mix: req_per_s falls by {1 - 1 / slowdown:.0%}; the "
          f"hoarding alone clocked {1 - 1 / clocked:.0%}")

    print(f"\n{'all checks passed' if not failures else 'FAILED:'}")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
