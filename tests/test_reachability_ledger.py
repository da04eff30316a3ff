"""The reachability ledger against the source tree, statically.

`tools/reachability.txt` lists every `src/repro` function no shipped
entry point executes, each with the reason it stays, and the functions
that were deleted for having none.  Regenerating it takes minutes
(`python tools/reachability.py --check`, a CI job); what can rot
between regenerations is checked here in well under a second: a listed
function that was renamed or removed, a reason outside the closed set,
a deleted name that crept back or is still exported.  Its parameter
section lists every defaulted parameter no shipped caller sets; what
can rot there is a row whose function is gone, whose parameter lost its
default, or whose reason is outside that section's closed set.
"""

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOL = REPO_ROOT / "tools" / "reachability.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()
LEDGER = tool.LEDGER.read_text()
CATALOGUE = tool.catalogue()
FUNCTIONS = {function.name for function in CATALOGUE}
PARAMETERS = tool.parameters(CATALOGUE)
ALL_REASONS = tool.read_reasons(LEDGER)
REASONS = {name: reason for name, reason in ALL_REASONS.items()
           if not tool.is_parameter(name)}
PARAMETER_REASONS = {name: reason for name, reason in ALL_REASONS.items()
                     if tool.is_parameter(name)}
DELETED = tool.read_deleted(LEDGER)


def module_path(module):
    base = tool.SRC.joinpath(*module.split("."))
    package = base / "__init__.py"
    return package if package.exists() else base.with_suffix(".py")


@lru_cache(maxsize=None)
def top_level_names(path):
    return {getattr(node, "name", None)
            for node in ast.parse(path.read_text()).body}


@lru_cache(maxsize=None)
def exported_names(path):
    """Every string a module lists in ``__all__`` or hands to
    ``lazy_exports`` (the lazy packages re-export through it)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        values = []
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            values = [node.value]
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", "") == "lazy_exports":
            values = node.args[1:]
        for value in values:
            names |= {constant.value for constant in ast.walk(value)
                      if isinstance(constant, ast.Constant)
                      and isinstance(constant.value, str)}
    return names


def test_the_ledger_has_entries_and_a_deleted_list():
    assert len(REASONS) > 50
    assert len(DELETED) > 50


def test_every_listed_function_still_exists():
    gone = sorted(set(REASONS) - FUNCTIONS)
    assert not gone, (
        f"in tools/reachability.txt but not in src/repro (regenerate "
        f"the ledger): {gone}")


def reasons_outside(reasons, keep_classes):
    bad = []
    for name, reason in sorted(reasons.items()):
        keep_class = next((keep_class for keep_class in keep_classes
                           if reason.startswith(keep_class)), None)
        if keep_class is None:
            bad.append(f"{name}: {reason!r} names no class of "
                       f"{keep_classes}")
        elif len(reason) < len(keep_class) + 10:
            bad.append(f"{name}: names its class but not why")
    return bad


def test_every_reason_is_from_the_closed_set_and_says_why():
    bad = reasons_outside(REASONS, tool.KEEP_CLASSES)
    assert not bad, "\n".join(bad)


def test_the_ledger_has_a_parameter_section():
    assert tool.PARAMETER_HEADER.splitlines()[0] in LEDGER
    assert PARAMETER_REASONS


def stale_parameter_rows(names):
    """A row whose function is gone, or whose parameter was removed or
    lost its default, is stale: the parameter is a constant now, or the
    row has to move with a rename."""
    stale = []
    for name in sorted(names):
        if name in PARAMETERS:
            continue
        function_name, _, parameter = name[:-1].partition("(")
        if function_name not in FUNCTIONS:
            stale.append(f"{name}: no function {function_name}")
        else:
            stale.append(f"{name}: {function_name} has no defaulted "
                         f"parameter {parameter!r}")
    return stale


def test_every_parameter_row_names_a_defaulted_parameter():
    stale = stale_parameter_rows(PARAMETER_REASONS)
    assert not stale, "\n".join(stale)


def test_every_parameter_reason_is_from_its_closed_set_and_says_why():
    bad = reasons_outside(PARAMETER_REASONS, tool.PARAMETER_KEEP_CLASSES)
    assert not bad, "\n".join(bad)


def test_the_parameter_checks_refuse_planted_rows():
    # ``Environment.step`` takes no argument; ``Environment.__init__``
    # has ``initial_time`` with a default
    assert stale_parameter_rows([
        "repro.sim.kernel:Environment.gone(until)",
        "repro.sim.kernel:Environment.step(until)",
        "repro.sim.kernel:Environment.__init__(no_such_parameter)",
        "repro.sim.kernel:Environment.__init__(initial_time)",
    ]) == [
        "repro.sim.kernel:Environment.__init__(no_such_parameter): "
        "repro.sim.kernel:Environment.__init__ has no defaulted "
        "parameter 'no_such_parameter'",
        "repro.sim.kernel:Environment.gone(until): no function "
        "repro.sim.kernel:Environment.gone",
        "repro.sim.kernel:Environment.step(until): "
        "repro.sim.kernel:Environment.step has no defaulted parameter "
        "'until'",
    ]
    assert len(reasons_outside({
        "a(b)": "safety/recovery -- a function-level class",
        "c(d)": "test seam",
        "e(f)": "test seam -- tests pass a fake clock",
    }, tool.PARAMETER_KEEP_CLASSES)) == 2


def test_no_deleted_name_is_back_or_still_exported():
    bad = []
    for name in DELETED:
        module, _, qualname = name.partition(":")
        if name in FUNCTIONS:
            bad.append(f"{name} was deleted and is back")
        path = module_path(module)
        top = qualname.split(".")[0]
        if path.exists() and top in top_level_names(path):
            if top == qualname and name not in FUNCTIONS:
                bad.append(f"class {name} was deleted and is back")
            continue  # a method went; its class is rightly still exported
        parts = module.split(".")
        for depth in range(1, len(parts) + 1):
            package = module_path(".".join(parts[:depth]))
            if package.exists() and top in exported_names(package):
                bad.append(f"{top} is gone from {module} but still "
                           f"exported by {package.relative_to(REPO_ROOT)}")
    assert not bad, "\n".join(bad)


def test_regeneration_drops_the_reasons_of_what_went(tmp_path, monkeypatch,
                                                     capsys):
    """A regeneration after a deletion writes the ledger without the
    gone rows and exits 0; ``--check`` on a committed ledger that still
    carries them fails, naming each."""
    functions = [
        tool.Function("repro.m:kept", ("repro/m.py", 1), 2, ""),
        tool.Function("repro.m:used", ("repro/m.py", 4), 2, "", ("flag",)),
    ]
    keys = {("repro/m.py", 4)}
    reasons = {"repro.m:kept": "test reference -- a test calls it",
               "repro.m:used(flag)": "test seam -- tests pass a second value"}
    written = tool.render(functions, keys, reasons, [], set())
    gone = ("repro.m:gone  3  keep: test reference -- its module moved\n"
            "repro.m:gone(x)  keep: test seam -- went with its function\n")
    committed = written + gone
    ledger = tmp_path / "reachability.txt"
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "LEDGER", ledger)
    monkeypatch.setattr(tool, "catalogue", lambda: functions)
    monkeypatch.setattr(tool, "reached", lambda: (keys, set()))

    ledger.write_text(committed)
    assert tool.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "keep: reason for a function that is gone: repro.m:gone\n" in err
    assert "keep: reason for a parameter that is gone: repro.m:gone(x)" in err
    assert "reachability.txt is stale" in err

    assert tool.main([]) == 0
    err = capsys.readouterr().err
    assert "gone" not in err
    assert ledger.read_text() == written
    assert tool.main(["--check"]) == 0
