"""The reachability ledger: which ``src/repro`` functions does any
shipped entry point execute?

    python tools/reachability.py            # regenerate tools/reachability.txt
    python tools/reachability.py --check    # regenerate to stdout, fail on drift

A function is *reached* when a ``sys.setprofile`` hook sees it called
while one of the entry points below runs: every ``repro list``
experiment (``--quick``), every chaos campaign under both manager
backends, the other CLI verbs and flags, the four ``stack`` workloads,
the ``examples/`` scripts and the figure benches.  Everything else in
the static catalogue (``ast`` over ``src/repro``; lambdas and
comprehensions are not counted) is *unreached* and is written to
``tools/reachability.txt``.

An unreached function either goes, or stays with a one-line ``keep:``
reason whose class is one of :data:`KEEP_CLASSES`.  The reasons are
hand-written into the ledger itself: a regeneration carries them over
by name, so the file is both the tool's output and the only place a
reason lives.  ``--check`` fails when an unreached function has no
reason, when a reason is attached to something that is reached or
gone, or when the regenerated text differs from the committed file.

How the blind spots are closed:

* Each group of entry points runs in its own interpreter (``--group``)
  with the hook installed before ``repro`` is imported, so decorators
  and import-time calls count.
* ``--jobs N`` shards really fork.  A child inherits the hook and its
  set; the tool wraps ``repro.fanout.pool._shard_worker`` so the child
  spools its set to disk before it exits and the parent folds it in.
* ``cProfile`` (the ``stack`` ledger, ``--trace 1``) owns the
  interpreter's one profile slot and clears it on ``disable()``; the
  tool re-installs its hook there.
* pytest-benchmark wraps every timed call in ``PauseInstrumentation``,
  which sets ``sys.setprofile(None)`` exactly where the bench body
  runs; the tool makes that context manager a no-op.
* ``pytest benchmarks/`` rewrites the tracked ``BENCH_*.json`` files;
  the tool points the benches' ``BENCH_*_OUT`` variables at a temporary
  directory and scales the three timed ones down.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pickle
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
LEDGER = Path(__file__).resolve().with_name("reachability.txt")

#: the closed set of reasons an unreached function may stay for.
KEEP_CLASSES = (
    "safety/recovery",
    "test reference",
    "paper content behind a test-only switch",
    "dunder/repr",
)

Key = Tuple[str, int]   # (path relative to src/, first line incl. decorators)


class Function(NamedTuple):
    name: str       # "repro.pkg.module:Class.method"
    key: Key
    n_lines: int
    parent: str     # enclosing function's name, "" at class/module level


# -- the static side ----------------------------------------------------------

def _walk(node: ast.AST, module: str, rel: str, scope: Tuple[str, ...],
          parent: str) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            label = child.name
            for decorator in child.decorator_list:
                # a property's setter shares its getter's name
                if isinstance(decorator, ast.Attribute) \
                        and decorator.attr in ("setter", "deleter"):
                    label = f"{child.name}.{decorator.attr}"
            first = min([child.lineno] + [decorator.lineno for decorator
                                          in child.decorator_list])
            name = f"{module}:{'.'.join(scope + (label,))}"
            yield Function(name, (rel, first),
                           child.end_lineno - first + 1, parent)
            yield from _walk(child, module, rel, scope + (label,), name)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, module, rel, scope + (child.name,),
                             parent)
        else:
            yield from _walk(child, module, rel, scope, parent)


def catalogue() -> List[Function]:
    """Every named function in ``src/repro``, in file then line order."""
    functions: List[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        module = rel[:-3].replace("/", ".")
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))
        functions.extend(sorted(_walk(tree, module, rel, (), ""),
                                key=lambda function: function.key))
    counts = Counter(function.name for function in functions)
    duplicated = sorted(name for name, n in counts.items() if n > 1)
    if duplicated:
        raise SystemExit(f"ambiguous function names: {duplicated}")
    return functions


# -- the dynamic side ---------------------------------------------------------

_seen: Set[Tuple[str, int]] = set()


def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        code = frame.f_code
        _add((code.co_filename, code.co_firstlineno))


def _install() -> None:
    import cProfile
    import threading

    disable = cProfile.Profile.disable

    def disable_and_rearm(profile):
        disable(profile)
        sys.setprofile(_hook)

    cProfile.Profile.disable = disable_and_rearm
    threading.setprofile(_hook)
    sys.setprofile(_hook)


def _spool(spool: Path) -> None:
    """Write this process's reached keys where the parent collects;
    the hook is off from here on (it would grow the set being read)."""
    sys.setprofile(None)
    prefix = str(SRC) + os.sep
    keys = {(filename[len(prefix):].replace(os.sep, "/"), line)
            for filename, line in _seen if filename.startswith(prefix)}
    with tempfile.NamedTemporaryFile(dir=spool, suffix=".reached",
                                     delete=False) as handle:
        pickle.dump(keys, handle)


def _report_from_shards(spool: Path) -> None:
    from repro.fanout import pool

    shard_worker = pool._shard_worker

    def shard_worker_then_spool(spec, trace_settings, conn):
        _seen.clear()   # the parent reports its own
        try:
            shard_worker(spec, trace_settings, conn)
        finally:
            _spool(spool)

    pool._shard_worker = shard_worker_then_spool


def _cli(*argv: str, expect: int = 0) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        status = main(list(argv))
    if status != expect:
        raise SystemExit(f"repro {' '.join(argv)}: exit {status}, "
                         f"expected {expect}")


def _script(path: Path, *argv: str) -> None:
    import runpy

    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise SystemExit(f"{path.name} {' '.join(argv)}: "
                             f"exit {stop.code}")
    finally:
        sys.argv = saved


def _group_experiments(scratch: Path) -> None:
    from repro.cli import EXPERIMENTS

    _cli("list")
    for name in sorted(EXPERIMENTS):
        _cli("run", name, "--quick")


def _group_campaigns(scratch: Path) -> None:
    from repro.chaos import CAMPAIGNS

    _cli("chaos", "list")
    for name in sorted(CAMPAIGNS):
        for backend in ("soft", "consensus"):
            _cli("chaos", name, "--manager-backend", backend)


def _group_cli(scratch: Path) -> None:
    spans = str(scratch / "spans.json")
    trace = str(scratch / "trace.tsv")
    _cli("chaos", "smoke", "--policy", "ewma+eject")
    _cli("chaos", "smoke", "--policy", "hash-bounded")
    _cli("chaos", "brick-smoke", "--profile-backend", "single")
    _cli("chaos", "--campaign", "smoke", "--runs", "2", "--jobs", "2",
         "--quiet", "--trace-out", spans, "--sample", "5")
    _cli("chaos", "smoke", "--runs", "2")
    _cli("chaos", "gray-smoke", "--trace-out", spans)
    _cli("run", "endtoend", "--quick", "--trace-out", spans)
    _cli("spans", spans, "--tree", "2")
    _cli("run", "policies", "--quick", "--policy", "p2c", "--jobs", "2")
    _cli("run", "cache", "--quick", "--jobs", "2",
         "--export", str(scratch / "export"))
    _cli("run", "all", "--quick", "--jobs", "2")
    _cli("replay", "--duration", "20", "--jobs", "2", "--check")
    _cli("replay", "--duration", "5")
    _cli("trace", "--duration", "600", "--out", trace)
    _cli("trace", "--analyze", trace)
    # what a mistyped command line gets back
    _cli("run", "no-such-experiment", expect=2)
    _cli("run", "table1", "--policy", "p2c", expect=2)
    _cli("run", "policies", "--policy", "no-such-policy", expect=2)
    _cli("chaos", "no-such-campaign", expect=2)
    _cli("chaos", "smoke", "--policy", "p2c+no-such-wrapper", expect=2)
    _cli("spans", str(scratch / "no-such-file.json"), expect=2)


def _group_stack(scratch: Path) -> None:
    run = ROOT / "benchmarks" / "stack" / "run.py"
    for workload in ("transend_mix", "jpeg_dispatch", "overload_ramp",
                     "hotbot_scatter"):
        _script(run, "--workload", workload, "--seed", "1997",
                "--trace", "1")
        _script(run, "--workload", workload, "--seed", "1997",
                "--scale", "0.05", "--seconds", "1")


def _group_examples(scratch: Path) -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        _script(path)


def _group_benches(scratch: Path) -> None:
    import pytest
    from pytest_benchmark import fixture

    fixture.PauseInstrumentation.__enter__ = lambda self: None
    fixture.PauseInstrumentation.__exit__ = lambda self, *exc: None
    os.environ.update(
        BENCH_KERNEL_OUT=str(scratch / "BENCH_kernel.json"),
        BENCH_FANOUT_OUT=str(scratch / "BENCH_fanout.json"),
        BENCH_REPLAY_OUT=str(scratch / "BENCH_replay.json"),
        BENCH_KERNEL_SCALE="0.05", BENCH_REPLAY_SCALE="0.005",
        BENCH_REPLAY_JOBS="2", BENCH_FANOUT_RUNS="2",
        BENCH_FANOUT_JOBS="2")
    sys.path.insert(0, str(ROOT))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        status = pytest.main([
            str(ROOT / "benchmarks"), "--benchmark-only", "-q",
            "-p", "no:cacheprovider", "--rootdir", str(ROOT),
            "--ignore", str(ROOT / "benchmarks" / "stack")])
    # a bench that fails its own assertion has still run its code;
    # anything worse (collection error, interrupt) has not
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        sys.stderr.write(out.getvalue())
        raise SystemExit(f"pytest benchmarks/: exit {status}")
    for line in out.getvalue().splitlines():
        if line.startswith("FAILED "):
            print(f"[reachability] {line}", file=sys.stderr)


GROUPS: Dict[str, Callable[[Path], None]] = {
    "experiments": _group_experiments,
    "campaigns": _group_campaigns,
    "cli": _group_cli,
    "stack": _group_stack,
    "examples": _group_examples,
    "benches": _group_benches,
}


def run_group(name: str, spool: Path) -> None:
    """The body of one ``--group`` interpreter."""
    _install()
    sys.path.insert(0, str(SRC))
    _report_from_shards(spool)
    with tempfile.TemporaryDirectory() as scratch:
        GROUPS[name](Path(scratch))
    _spool(spool)


def reached() -> Set[Key]:
    """Run every group, each in a fresh interpreter, and pool what they
    and their forked shards reached."""
    keys: Set[Key] = set()
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as spool:
        for name in GROUPS:
            print(f"[reachability] {name} ...", file=sys.stderr, flush=True)
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--group", name, "--spool", spool],
                check=True, cwd=str(ROOT), env=env, stdout=sys.stderr)
        for path in sorted(Path(spool).glob("*.reached")):
            keys |= pickle.loads(path.read_bytes())
    return keys


# -- the ledger ---------------------------------------------------------------

HEADER = """\
# Reachability ledger -- written by `python tools/reachability.py`.
#
# Every function in src/repro that no shipped entry point executes (all
# `repro list` experiments --quick, the 16 campaigns x {soft,
# consensus}, the other CLI verbs and flags, the four `stack`
# workloads, examples/, the figure benches).  Each one stays for a
# reason; the reason is hand-written here after `keep:` and survives a
# regeneration.  Its class is one of:
"""


def read_reasons(text: str) -> Dict[str, str]:
    """``name -> reason`` from a ledger's ``keep:`` lines."""
    reasons: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        entry, _, reason = line.partition("keep:")
        reasons[entry.split()[0]] = reason.strip()
    return reasons


def read_deleted(text: str) -> List[str]:
    """Names under the ledger's ``# deleted:`` heading."""
    names: List[str] = []
    for line in text.splitlines():
        if line.startswith("#   - "):
            names.append(line[len("#   - "):].split()[0])
    return names


def render(functions: List[Function], keys: Set[Key],
           reasons: Dict[str, str], deleted: List[str]) -> str:
    unreached = [function for function in functions
                 if function.key not in keys]
    names = {function.name for function in unreached}
    # a nested function is inside its parent's lines already
    n_lines = sum(function.n_lines for function in unreached
                  if function.parent not in names)
    lines = [HEADER.rstrip("\n")]
    lines += [f"#   {keep_class}" for keep_class in KEEP_CLASSES]
    lines += ["#",
              f"# {len(functions)} functions in src/repro, "
              f"{len(unreached)} unreached ({n_lines} lines).",
              "#",
              "# deleted: removed for being unreached with no such reason, or "
              "folded into",
              "# a survivor (repro.sim.hashing, BenchService); must not come "
              "back",
              *(f"#   - {name}" for name in deleted),
              ""]
    width = max((len(function.name) for function in unreached), default=0)
    for function in unreached:
        reason = reasons.get(function.name, "")
        lines.append(f"{function.name.ljust(width)}  "
                     f"{function.n_lines:>3}  keep: {reason}".rstrip())
    return "\n".join(lines) + "\n"


def problems(functions: List[Function], keys: Set[Key],
             reasons: Dict[str, str], deleted: List[str]) -> List[str]:
    found: List[str] = []
    known = {function.name: function for function in functions}
    for function in functions:
        if function.key in keys:
            continue
        reason = reasons.get(function.name, "")
        if not reason.startswith(KEEP_CLASSES):
            found.append(f"unreached without a keep: reason from the closed "
                         f"set: {function.name}")
    for name in reasons:
        if name not in known:
            found.append(f"keep: reason for a function that is gone: {name}")
        elif known[name].key in keys:
            found.append(f"keep: reason for a function that is reached: "
                         f"{name}")
    for name in deleted:
        if name in known:
            found.append(f"listed as deleted but present: {name}")
    return found


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print the regenerated ledger instead of "
                             "writing it; fail if it differs from the "
                             "committed one or has an unexplained entry")
    parser.add_argument("--group", choices=sorted(GROUPS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spool", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.group is not None:
        run_group(args.group, args.spool)
        return 0
    committed = LEDGER.read_text() if LEDGER.exists() else ""
    reasons = read_reasons(committed)
    deleted = read_deleted(committed)
    functions = catalogue()
    keys = reached()
    text = render(functions, keys, reasons, deleted)
    found = problems(functions, keys, reasons, deleted)
    if args.check:
        sys.stdout.write(text)
        if text != committed:
            found.append(f"{LEDGER.relative_to(ROOT)} is stale: run "
                         f"`python tools/reachability.py` and commit it")
    else:
        LEDGER.write_text(text)
    for problem in found:
        print(problem, file=sys.stderr)
    n_unreached = sum(function.key not in keys for function in functions)
    print(f"{LEDGER.relative_to(ROOT)}: {n_unreached} unreached of "
          f"{len(functions)}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
