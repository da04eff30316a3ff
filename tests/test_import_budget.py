"""Import budget and layering: what importing a module may drag in.

Start-up time is most of what a short run costs, and most of start-up
used to be imports nobody asked for: the bench harness loaded all
seventeen experiment drivers, and through them the chaos, fan-out,
consensus and dstore packages and numpy.  DESIGN.md states the rule
(a lower layer never imports a higher one at module import time;
package ``__init__`` re-exports are lazy); these tests hold it.

Every assertion is on ``sys.modules`` of a fresh interpreter, never on
wall time: a budget in modules does not flake on a busy host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: the experiment drivers: every public module of `repro.experiments`
DRIVERS = frozenset(
    f"repro.experiments.{path.stem}"
    for path in (SRC / "repro" / "experiments").glob("[!_]*.py"))
#: packages (and numpy) that only a higher layer, or real pixels, need
HEAVY = ("numpy", "repro.chaos", "repro.fanout", "repro.consensus",
         "repro.dstore")

#: every package of `repro`: each re-exports its submodules' names
#: lazily (`repro._lazy`)
LAZY_PACKAGES = tuple(
    f"repro.{path.parent.name}"
    for path in sorted((SRC / "repro").glob("*/__init__.py")))
#: modules a deployment of the `stack` benchmark, built and given its
#: inputs, never calls: the tracing reports and exporters, the analysis
#: renderers, the brownout ladder and its forced distillation setting
#: (no `stack` workload starts the controller) and the burstiness
#: analysis
NOT_FOR_SETUP = ("repro.obs.attribution", "repro.obs.export",
                 "repro.analysis", "repro.degrade.ladder",
                 "repro.workload.burstiness")

_REPORT = ("\nimport json, sys\n"
           "print(json.dumps(sorted(sys.modules)))\n")


def fresh_interpreter(code):
    """Run ``code`` in a new interpreter that ends by printing its
    ``sys.modules``; returns (exit status, other stdout, modules)."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(SRC), str(REPO_ROOT))))
    done = subprocess.run([sys.executable, "-c", code + _REPORT],
                          capture_output=True, text=True, env=env,
                          cwd=str(REPO_ROOT), timeout=120)
    assert done.stdout, done.stderr
    *printed, modules = done.stdout.splitlines()
    return done.returncode, printed, json.loads(modules)


def over_budget(modules):
    return sorted(
        name for name in modules
        if name in DRIVERS
        or any(name == heavy or name.startswith(heavy + ".")
               for heavy in HEAVY))


def test_there_are_drivers_to_keep_out():
    assert len(DRIVERS) >= 17
    assert "repro.experiments.table2_scalability" in DRIVERS
    assert "repro.experiments._harness" not in DRIVERS


@pytest.mark.parametrize("module", [
    "repro.core.config",
    "repro.core.fabric",
    "repro.experiments._harness",
    "repro.transend.service",
    "repro.hotbot.service",
    "repro.workload.playback",
    "repro.cli",
])
def test_import_loads_no_higher_layer(module):
    status, _, modules = fresh_interpreter(f"import {module}")
    assert status == 0
    assert module in modules
    assert over_budget(modules) == []


def test_the_domain_module_imports_no_repro_module():
    """Every layer checks its values through `repro.domains`, so it sits
    below all of them: importing it loads nothing else of `repro`."""
    status, _, modules = fresh_interpreter("import repro.domains")
    assert status == 0
    assert [name for name in modules
            if name.startswith("repro.")] == ["repro.domains"]


@pytest.mark.parametrize("argv, expected_status", [
    (["--help"], 0),
    (["list"], 0),
    (["run", "nonsense"], 2),
])
def test_cli_that_runs_nothing_loads_no_driver(argv, expected_status):
    status, printed, modules = fresh_interpreter(
        "import sys\n"
        "from repro.cli import main\n"
        "try:\n"
        f"    status = main({argv!r})\n"
        "except SystemExit as stop:\n"  # argparse leaves --help this way
        "    status = stop.code\n"
        "print('status', status)\n")
    assert status == 0
    assert printed[-1] == f"status {expected_status}"
    assert over_budget(modules) == []


def test_cli_run_loads_the_one_driver_it_runs():
    status, printed, modules = fresh_interpreter(
        "from repro.cli import main\n"
        "print('status', main(['run', 'table1', '--quick']))\n")
    assert status == 0
    assert printed[-1] == "status 0"
    assert over_budget(modules) == ["repro.experiments.table1_comparison"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_keeps_its_public_names(package):
    status, printed, _ = fresh_interpreter(
        "import importlib\n"
        f"package = importlib.import_module({package!r})\n"
        "names = set(package.__all__)\n"
        "print('listed', names <= set(dir(package)))\n"
        "print('resolved', all(getattr(package, name) is not None\n"
        "                      for name in names))\n"
        "print('bound', names <= set(vars(package)))\n"
        "print('unknown', hasattr(package, 'no_such_name'))\n"
        "scope = {}\n"
        f"exec('from {package} import *', scope)\n"
        "print('star', names <= set(scope))\n")
    assert status == 0
    assert printed == ["listed True", "resolved True", "bound True",
                       "unknown False", "star True"]


def test_every_package_is_listed_as_lazy():
    assert len(LAZY_PACKAGES) == 18
    assert {"repro.core", "repro.sim", "repro.obs", "repro.workload",
            "repro.experiments"} <= set(LAZY_PACKAGES)


def test_a_package_import_loads_none_of_its_submodules():
    """A lazy package's ``__init__`` imports only ``repro._lazy``: no
    package registers anything when it is imported."""
    packages = "\n".join(f"import {package}" for package in LAZY_PACKAGES)
    status, _, modules = fresh_interpreter(packages)
    assert status == 0
    assert sorted(name for name in modules if name.startswith("repro")) \
        == sorted(("repro", "repro._lazy") + LAZY_PACKAGES)


def test_setup_loads_only_what_the_deployments_use():
    """Building each of the four `stack` deployments and generating its
    inputs (what the benchmark's setup_s probe times) loads none of the
    modules only reports and analyses use."""
    status, printed, modules = fresh_interpreter(
        "from benchmarks.stack.loadgen import scaled\n"
        "from benchmarks.stack.workloads import WORKLOADS\n"
        "for workload in WORKLOADS.values():\n"
        "    workload.build(1997, 0.02)\n"
        "    workload.inputs(1997, scaled(workload.steps, 0.02))\n"
        "print('built', len(WORKLOADS))\n")
    assert status == 0
    assert printed[-1] == "built 4"
    assert sorted(
        name for name in modules
        if any(name == unused or name.startswith(unused + ".")
               for unused in NOT_FOR_SETUP)) == []
    assert over_budget(modules) == []


def test_unknown_name_raises_attribute_error():
    import repro.experiments

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.experiments.no_such_name
    with pytest.raises(ImportError):
        from repro.experiments import no_such_name  # noqa: F401


def test_public_imports_keep_working():
    from repro.chaos import Campaign
    from repro.distillers import SyntheticImage
    from repro.experiments import run_table2

    assert callable(run_table2)
    assert isinstance(Campaign, type) and isinstance(SyntheticImage, type)


@pytest.mark.parametrize("workload", ["transend_mix", "jpeg_dispatch",
                                      "overload_ramp", "hotbot_scatter"])
def test_a_replayed_unit_fires_no_late_import(workload):
    """No lazy import may be waiting inside the replay: after a whole
    (small) unit of a `stack` benchmark workload, numpy and the drivers
    are as absent as they were after the imports."""
    status, printed, modules = fresh_interpreter(
        "from benchmarks.stack.harness import run_unit\n"
        "from benchmarks.stack.workloads import WORKLOADS\n"
        f"unit = run_unit(WORKLOADS[{workload!r}], 1997, 0.02)\n"
        "print('answered', unit.answered > 0 and unit.failed == 0)\n")
    assert status == 0
    assert printed[-1] == "answered True"
    assert over_budget(modules) == []
