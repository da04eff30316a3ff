"""The reachability ledger against the source tree, statically.

`tools/reachability.txt` lists every `src/repro` function no shipped
entry point executes, each with the reason it stays, and the functions
that were deleted for having none.  Regenerating it takes minutes
(`python tools/reachability.py --check`, a CI job); what can rot
between regenerations is checked here in well under a second: a listed
function that was renamed or removed, a reason outside the closed set,
a deleted name that crept back or is still exported.
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
FUNCTIONS = {function.name for function in tool.catalogue()}
REASONS = tool.read_reasons(LEDGER)
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


def test_every_reason_is_from_the_closed_set_and_says_why():
    bad = []
    for name, reason in sorted(REASONS.items()):
        keep_class = next((keep_class for keep_class in tool.KEEP_CLASSES
                           if reason.startswith(keep_class)), None)
        if keep_class is None:
            bad.append(f"{name}: {reason!r} names no class of "
                       f"{tool.KEEP_CLASSES}")
        elif len(reason) < len(keep_class) + 10:
            bad.append(f"{name}: names its class but not why")
    assert not bad, "\n".join(bad)


def test_no_deleted_name_is_back_or_still_exported():
    bad = []
    for name in DELETED:
        module, _, qualname = name.partition(":")
        if name in FUNCTIONS:
            bad.append(f"{name} was deleted and is back")
        path = module_path(module)
        top = qualname.split(".")[0]
        if path.exists() and top in top_level_names(path):
            continue  # a method went; its class is rightly still exported
        parts = module.split(".")
        for depth in range(1, len(parts) + 1):
            package = module_path(".".join(parts[:depth]))
            if package.exists() and top in exported_names(package):
                bad.append(f"{top} is gone from {module} but still "
                           f"exported by {package.relative_to(REPO_ROOT)}")
    assert not bad, "\n".join(bad)
