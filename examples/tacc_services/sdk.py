"""The TACC SDK: a conformance harness for worker authors.

Section 5.4: "The programming model for TACC services is still
embryonic.  We plan to develop it into a well-defined programming
environment with an SDK, and we will encourage our colleagues to author
services of their own using our system."  This module sketches that
SDK's core, as user code on the TACC API rather than part of it: it
checks, mechanically, the contracts the SNS layer depends on —
contracts that are otherwise only enforced by production incidents.

A worker passes the bench when it is:

* **registrable** — has a usable ``worker_type`` and constructs with no
  arguments (the manager spawns workers by type name alone);
* **stateless** — running the same request through two fresh instances,
  or twice through one instance, yields identical output (restartable
  anywhere, interchangeable with its peers);
* **MIME-honest** — output MIME matches the declared ``produces``;
* **costed** — ``work_estimate`` is non-negative, finite, and
  non-decreasing in input size (the manager's load balancing consumes
  these numbers);
* **failure-disciplined** — garbage input raises :class:`WorkerError`
  (which the front end routes around), never an arbitrary exception and
  never a hang-forever sentinel value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.tacc.worker import TACCRequest, Worker, WorkerError


@dataclass
class CheckResult:
    """One conformance check's outcome."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.name}{suffix}"


@dataclass
class BenchReport:
    """All check outcomes for one worker type."""

    worker_type: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def failures(self) -> List[CheckResult]:
        return [result for result in self.results if not result.passed]

    def render(self) -> str:
        lines = [f"TACC SDK conformance: {self.worker_type} — "
                 f"{'OK' if self.passed else 'NOT CONFORMANT'}"]
        lines.extend(f"  {result}" for result in self.results)
        return "\n".join(lines)


class WorkerBench:
    """Conformance harness for one worker class."""

    def __init__(
        self,
        worker_class: type,
        fixtures: Sequence[TACCRequest],
        garbage: Optional[TACCRequest] = None,
    ) -> None:
        if not fixtures:
            raise ValueError("at least one fixture request is required")
        self.worker_class = worker_class
        self.fixtures = list(fixtures)
        self.garbage = garbage

    # -- individual checks ---------------------------------------------------

    def check_registrable(self) -> CheckResult:
        name = "registrable (constructs bare, has worker_type)"
        try:
            worker = self.worker_class()
        except Exception as error:
            return CheckResult(name, False,
                               f"constructor failed: {error}")
        worker_type = getattr(worker, "worker_type", "")
        if not worker_type or worker_type == "worker":
            return CheckResult(name, False,
                               f"worker_type is {worker_type!r}")
        if not isinstance(worker, Worker):
            return CheckResult(name, False, "not a Worker subclass")
        return CheckResult(name, True)

    def check_stateless(self) -> CheckResult:
        name = "stateless (two fresh instances agree; reruns agree)"
        for index, request in enumerate(self.fixtures):
            first = self.worker_class().run(request)
            second = self.worker_class().run(request)
            if first.data != second.data or first.mime != second.mime:
                return CheckResult(
                    name, False,
                    f"fixture {index}: instances disagree")
            one_instance = self.worker_class()
            again_a = one_instance.run(request)
            again_b = one_instance.run(request)
            if again_a.data != again_b.data:
                return CheckResult(
                    name, False,
                    f"fixture {index}: instance carries state between "
                    "requests")
        return CheckResult(name, True)

    def check_mime_contract(self) -> CheckResult:
        name = "MIME contract (accepts respected, produces honest)"
        worker = self.worker_class()
        for index, request in enumerate(self.fixtures):
            input_mime = request.inputs[0].mime
            if not worker.accepts_mime(input_mime):
                return CheckResult(
                    name, False,
                    f"fixture {index} has MIME {input_mime!r} the worker "
                    "does not accept — bad fixture or bad accepts")
            output = worker.run(request)
            if worker.produces is not None and \
                    output.mime != worker.produces:
                return CheckResult(
                    name, False,
                    f"fixture {index}: declared produces="
                    f"{worker.produces!r} but emitted {output.mime!r}")
        return CheckResult(name, True)

    def check_cost_model(self) -> CheckResult:
        name = "cost model (finite, non-negative, monotone in size)"
        worker = self.worker_class()
        base = self.fixtures[0]
        small = base.inputs[0]
        big = small.derive(small.data * 4 if small.data else b"x" * 4096,
                           worker="sdk-inflate")
        cost_small = worker.work_estimate(base)
        cost_big = worker.work_estimate(TACCRequest(
            inputs=[big], params=base.params, profile=base.profile))
        for value, label in ((cost_small, "small"), (cost_big, "big")):
            if not (value >= 0.0 and value == value
                    and value != float("inf")):
                return CheckResult(name, False,
                                   f"{label} estimate is {value!r}")
        if cost_big < cost_small:
            return CheckResult(
                name, False,
                f"estimate decreased with size: {cost_small} -> "
                f"{cost_big}")
        return CheckResult(name, True)

    def check_failure_discipline(self) -> CheckResult:
        name = "failure discipline (garbage input -> WorkerError)"
        if self.garbage is None:
            return CheckResult(name, True, "no garbage fixture (skipped)")
        worker = self.worker_class()
        try:
            worker.run(self.garbage)
        except WorkerError:
            return CheckResult(name, True)
        except Exception as error:
            return CheckResult(
                name, False,
                f"raised {type(error).__name__} instead of WorkerError")
        return CheckResult(
            name, True,
            "worker tolerated the garbage (acceptable: it degraded "
            "gracefully)")

    def check_simulation_fidelity(self) -> CheckResult:
        name = "simulate() size model (within 3x of real output size)"
        worker = self.worker_class()
        for index, request in enumerate(self.fixtures):
            real = worker.run(request)
            simulated = self.worker_class().simulate(request)
            if simulated.size == 0 and real.size == 0:
                continue
            ratio = max(real.size, 1) / max(simulated.size, 1)
            if not (1 / 3 <= ratio <= 3):
                return CheckResult(
                    name, False,
                    f"fixture {index}: real {real.size}B vs simulated "
                    f"{simulated.size}B")
        return CheckResult(name, True)

    # -- the whole bench -----------------------------------------------------------

    def run(self) -> BenchReport:
        worker_type = getattr(self.worker_class, "worker_type",
                              self.worker_class.__name__)
        report = BenchReport(worker_type=worker_type)
        for check in (
            self.check_registrable,
            self.check_stateless,
            self.check_mime_contract,
            self.check_cost_model,
            self.check_failure_discipline,
            self.check_simulation_fidelity,
        ):
            try:
                report.results.append(check())
            except Exception as error:  # a check itself blowing up fails it
                report.results.append(CheckResult(
                    check.__name__, False,
                    f"check crashed: {type(error).__name__}: {error}"))
        return report


def check_worker(worker_class: type, fixtures: Sequence[TACCRequest],
                 garbage: Optional[TACCRequest] = None) -> BenchReport:
    """One-call conformance check (see :class:`WorkerBench`)."""
    return WorkerBench(worker_class, fixtures, garbage).run()
