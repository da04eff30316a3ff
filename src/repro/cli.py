"""Command-line interface: run any reproduced experiment by name.

::

    python -m repro list
    python -m repro run figure8 --seed 7
    python -m repro run table2
    python -m repro run all
    python -m repro chaos mixed
    python -m repro run endtoend --trace-out trace.json
    python -m repro spans trace.json --tree 2

Each experiment prints its result in the paper's shape (the same
renderers the benchmarks use).  ``--quick`` runs the reduced scales the
unit tests use; the default is full benchmark scale.

Two unrelated things are both called "trace" here, so to be precise:
``trace`` (the subcommand) generates or analyzes a synthetic *workload*
trace — a list of HTTP requests to feed the simulator.  ``--trace-out``
and the ``spans`` subcommand deal with *span* traces — per-request
causal timelines recorded by :mod:`repro.obs` during a run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional

from repro.experiments import EXPERIMENTS

#: ``chaos`` flags that are aliases for :class:`SNSConfig` fields
#: (argparse dest -> field); they fill ``get_campaign``'s overrides.
CONFIG_FLAGS = {"profile_backend": "profile_backend",
                "manager_backend": "manager_backend",
                "policy": "routing_policy"}


def _number(cast: Callable, accepts: Callable[[Any], bool],
            requirement: str) -> Callable[[str], Any]:
    """An argparse ``type`` that rejects an out-of-range count or size
    at the parser: exit 2 and one line naming the flag."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not accepts(value):
            raise argparse.ArgumentTypeError(
                f"must be {cast.__name__} {requirement}, got {text!r}")
        return value
    return parse


_COUNT = _number(int, lambda value: value >= 1, ">= 1")
_POSITIVE = _number(float, lambda value: value > 0, "> 0")
_NATURAL = _number(int, lambda value: value >= 0, ">= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Cluster-Based Scalable Network "
                    "Services' (SOSP 1997) experiments.")
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser(
        "run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="experiment name from 'list', or 'all'")
    run_parser.add_argument("--seed", type=int, default=1997,
                            help="master RNG seed (default 1997)")
    run_parser.add_argument("--quick", action="store_true",
                            help="reduced scale for a fast look")
    run_parser.add_argument("--jobs", type=_COUNT, default=1, metavar="N",
                            help="fan independent simulation units "
                                 "across N worker processes (output is "
                                 "byte-identical to --jobs 1; "
                                 "default 1: serial)")
    run_parser.add_argument("--policy", default=None, metavar="SPEC",
                            help="routing-policy spec for the "
                                 "'policies' experiment: run only that "
                                 "arm (e.g. 'p2c', 'ewma+eject'; see "
                                 "repro.balance)")
    run_parser.add_argument("--export", metavar="DIR", default=None,
                            help="also write <DIR>/<name>.json with the "
                                 "raw result data")
    run_parser.add_argument("--trace-out", metavar="FILE", default=None,
                            help="record span traces during the run and "
                                 "write them to FILE as Chrome "
                                 "trace_event JSON (open in Perfetto); "
                                 "also prints a latency-attribution "
                                 "report")
    run_parser.add_argument("--sample", type=_COUNT, default=1,
                            metavar="N",
                            help="with --trace-out, sample every Nth "
                                 "request (default 1: every request)")
    chaos_parser = subparsers.add_parser(
        "chaos", help="run a chaos campaign under invariant checking")
    chaos_parser.add_argument(
        "campaign", nargs="?", default=None,
        help="campaign name (omit or 'list' to see them)")
    chaos_parser.add_argument(
        "--campaign", dest="campaign_opt", default=None, metavar="NAME",
        help="campaign name as a flag (equivalent to the positional)")
    chaos_parser.add_argument("--seed", type=int, default=1997,
                              help="master RNG seed (default 1997)")
    chaos_parser.add_argument("--runs", type=_COUNT, default=1,
                              metavar="N",
                              help="run the campaign N times with "
                                   "derived seeds and report the "
                                   "batch (default 1)")
    chaos_parser.add_argument("--jobs", type=_COUNT, default=1,
                              metavar="N",
                              help="fan batch runs across N worker "
                                   "processes (byte-identical to "
                                   "--jobs 1; default 1: serial)")
    chaos_parser.add_argument("--profile-backend", default=None,
                              choices=["single", "dstore"],
                              help="set the config's profile_backend: "
                                   "'single' (WAL store) or 'dstore' "
                                   "(replicated bricks); default: the "
                                   "campaign's own setting")
    chaos_parser.add_argument("--manager-backend", default=None,
                              choices=["soft", "consensus"],
                              help="set the config's manager_backend: "
                                   "'soft' (the paper's single "
                                   "soft-state manager) or 'consensus' "
                                   "(the Paxos-replicated manager "
                                   "group); default: the campaign's "
                                   "own setting")
    chaos_parser.add_argument("--policy", default=None, metavar="SPEC",
                              help="set the config's routing_policy, "
                                   "the worker-selection policy (a "
                                   "repro.balance spec, e.g. 'p2c' or "
                                   "'ewma+eject'); works under either "
                                   "--manager-backend; default: the "
                                   "config's lottery")
    chaos_parser.add_argument("--quiet", action="store_true",
                              help="suppress the per-run progress "
                                   "lines on stderr")
    chaos_parser.add_argument("--trace-out", metavar="FILE",
                              default=None,
                              help="record span traces during the "
                                   "campaign and write Chrome "
                                   "trace_event JSON to FILE; "
                                   "violations then carry the "
                                   "offending request's span tree")
    chaos_parser.add_argument("--sample", type=_COUNT, default=1,
                              metavar="N",
                              help="with --trace-out, sample every Nth "
                                   "request (default 1)")
    spans_parser = subparsers.add_parser(
        "spans", help="summarize a span-trace file written by "
                      "'run --trace-out' (per-request causal "
                      "timelines, not workload traces)")
    spans_parser.add_argument("file", help="Chrome trace_event JSON "
                                           "file from --trace-out")
    spans_parser.add_argument("--tree", type=_NATURAL, default=0,
                              metavar="N",
                              help="also render the N slowest span "
                                   "trees with their critical paths")
    trace_parser = subparsers.add_parser(
        "trace", help="generate or analyze a synthetic workload trace "
                      "(HTTP request list; for per-request span "
                      "traces see 'run --trace-out' and 'spans')")
    trace_parser.add_argument("--duration", type=_POSITIVE,
                              default=3600.0,
                              help="trace span in seconds "
                                   "(default 3600)")
    trace_parser.add_argument("--rate", type=_POSITIVE, default=5.8,
                              help="mean request rate (default 5.8, "
                                   "the Berkeley dialup average)")
    trace_parser.add_argument("--seed", type=int, default=1997)
    trace_parser.add_argument("--out", metavar="FILE", default=None,
                              help="write the trace to FILE "
                                   "(tab-separated)")
    trace_parser.add_argument("--analyze", metavar="FILE", default=None,
                              help="analyze an existing trace file "
                                   "instead of generating")
    return parser


def list_experiments() -> str:
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name.ljust(width)}  "
                     f"{EXPERIMENTS[name].description}")
    lines.append(f"  {'all'.ljust(width)}  run every experiment")
    return "\n".join(lines)


def run_experiment(name: str, seed: int, quick: bool,
                   export_dir: Optional[str] = None,
                   jobs: int = 1,
                   policy: Optional[str] = None) -> str:
    experiment = EXPERIMENTS[name]
    result = experiment.run(seed, quick, jobs=jobs, policy=policy)
    text = (f"=== {name}: {experiment.description} (seed {seed}) ===\n"
            + result.render())
    if export_dir is not None:
        from repro.analysis.export import export_result
        path = export_result(name, result, export_dir)
        text += f"\n[exported {path}]"
    return text


def _run_names(names, args) -> bool:
    """Run the selected experiments; returns True if any shard failed.

    With ``--jobs N`` and several experiments, each experiment becomes
    one shard (the inner sweeps then stay serial so the pool is not
    nested); a single experiment instead passes ``jobs`` down to its
    own sweep.  Results print in name order either way.
    """
    jobs = args.jobs
    if jobs > 1 and len(names) > 1:
        from repro.fanout import ShardSpec, run_sharded

        # several names means all of them: load every driver before the
        # pool forks, so the shards inherit the modules instead of each
        # importing its own
        for experiment in EXPERIMENTS.values():
            experiment.function
        specs = [
            ShardSpec(shard_id=f"run[{name}]", fn=run_experiment,
                      kwargs=dict(name=name, seed=args.seed,
                                  quick=args.quick,
                                  export_dir=args.export,
                                  policy=args.policy))
            for name in names
        ]
        sweep = run_sharded(specs, jobs=jobs)
        for result in sweep.results:
            if result.ok:
                print(result.value)
                print()
            else:
                print(f"[{result.shard_id} failed: {result.error}]",
                      file=sys.stderr)
        if not sweep.complete:
            print(f"[harvest {sweep.harvest:.0%}: "
                  f"{len(sweep.failed)} of {sweep.total} "
                  f"experiment(s) failed]", file=sys.stderr)
            return True
        return False
    for name in names:
        print(run_experiment(name, args.seed, args.quick, args.export,
                             jobs=jobs, policy=args.policy))
        print()
    return False


@contextmanager
def _span_tracing(args):
    """With ``--trace-out``, record span traces around the block, then
    write the Chrome trace file and print the attribution report."""
    if args.trace_out is None:
        yield
        return
    from repro.obs import (build_attribution_report, capture_traces,
                           export_chrome_trace)

    with capture_traces(sample_every=args.sample) as tracers:
        yield
    count = export_chrome_trace(tracers, args.trace_out)
    print(build_attribution_report(tracers).render())
    print(f"[wrote {count} span event(s) to {args.trace_out}]")


def _check_policy_spec(spec: str) -> Optional[str]:
    """Validate a ``--policy`` spec up front; returns the error text
    (with the available specs) or None when the spec parses."""
    from repro.balance import PolicyError, available_policies, \
        parse_policy_spec
    try:
        parse_policy_spec(spec)
    except PolicyError as error:
        return (f"{error}\navailable policies: "
                f"{', '.join(available_policies())} "
                f"(wrappers: +eject)")
    return None


def chaos_command(args) -> int:
    """Run a chaos campaign; nonzero exit if any invariant broke."""
    from repro.chaos import CAMPAIGNS, CampaignRunner, get_campaign

    name = args.campaign
    option = args.campaign_opt
    if name is not None and option is not None and name != option:
        print(f"conflicting campaign names {name!r} and {option!r}",
              file=sys.stderr)
        return 2
    if name is None:
        name = option
    if name is None or name == "list":
        width = max(len(name) for name in CAMPAIGNS)
        print("available campaigns:")
        for name in sorted(CAMPAIGNS):
            print(f"  {name.ljust(width)}  "
                  f"{CAMPAIGNS[name].description}")
        return 0
    flags = vars(args)
    overrides = {field: flags[flag] for flag, field in CONFIG_FLAGS.items()
                 if flags[flag] is not None}
    try:
        campaign = get_campaign(name, overrides)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if "routing_policy" in overrides:
        error = _check_policy_spec(overrides["routing_policy"])
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    if args.runs > 1 or args.jobs > 1:
        return _chaos_batch(name, args, overrides)
    with _span_tracing(args):
        report = CampaignRunner(campaign, seed=args.seed).run()
        print(report.render())
    return 0 if report.ok else 1


def _chaos_progress(result, n_done: int, n_total: int) -> None:
    """One line per finished run: shard id, seed, verdict."""
    if not result.ok:
        verdict = f"FAILED: {result.error}"
    elif result.value.ok:
        verdict = "ok"
    else:
        verdict = f"VIOLATIONS({len(result.value.violations)})"
    print(f"[{n_done}/{n_total}] {result.shard_id}  {verdict}",
          file=sys.stderr)


def _chaos_batch(name: str, args, overrides: Dict[str, Any]) -> int:
    """Run a campaign batch; nonzero exit if any run failed or any
    invariant broke."""
    from repro.chaos import run_campaign_batch

    progress = None if args.quiet else _chaos_progress
    with _span_tracing(args):
        batch = run_campaign_batch(name, master_seed=args.seed,
                                   runs=args.runs, jobs=args.jobs,
                                   overrides=overrides,
                                   progress=progress)
        print(batch.render())
    return 0 if batch.ok else 1


def spans_command(args) -> int:
    """Summarize a span-trace file: attribution plus slowest trees."""
    from repro.obs import (
        AttributionReport,
        critical_path,
        load_chrome_trace,
        render_span_tree,
    )
    from repro.obs.attribution import find_root

    try:
        traces = load_chrome_trace(args.file)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot read {args.file!r}: {error}", file=sys.stderr)
        return 2
    report = AttributionReport()
    rows = []
    for trace_id, spans in sorted(traces.items()):
        report.add_trace(trace_id, spans)
        root = find_root(spans)
        if root is not None:
            rows.append((root.duration, trace_id, spans))
    total_spans = sum(len(spans) for spans in traces.values())
    print(f"{args.file}: {len(traces)} trace(s), "
          f"{total_spans} span(s)")
    print(report.render())
    rows.sort(key=lambda row: (-row[0], row[1]))
    for duration, trace_id, spans in rows[:args.tree]:
        print()
        print(f"--- {trace_id} ({duration * 1000:.1f}ms) ---")
        print(render_span_tree(spans))
        path = critical_path(spans)
        if path:
            print("critical path: " + " -> ".join(
                f"{span.name} {(right - left) * 1000:.1f}ms"
                for span, left, right in path))
    return 0


def trace_command(args) -> int:
    """Generate a synthetic trace, or analyze one from disk."""
    from repro.workload.burstiness import burstiness_report
    from repro.workload.trace import load_trace, save_trace
    from repro.workload.tracegen import TraceGenerator

    if args.analyze is not None:
        try:
            records = load_trace(args.analyze)
        except (OSError, ValueError) as error:
            print(f"cannot read {args.analyze!r}: {error}", file=sys.stderr)
            return 2
        source = args.analyze
    else:
        generator = TraceGenerator(seed=args.seed,
                                   mean_rate_rps=args.rate)
        records = generator.generate(args.duration)
        source = (f"generated: {args.duration:g}s at ~{args.rate:g} "
                  f"req/s, seed {args.seed}")
        if args.out is not None:
            count = save_trace(records, args.out)
            print(f"wrote {count} records to {args.out}")
    if not records:
        print("trace is empty")
        return 0
    by_mime: dict = {}
    for record in records:
        stats = by_mime.setdefault(record.mime, [0, 0])
        stats[0] += 1
        stats[1] += record.size_bytes
    clients = len({record.client_id for record in records})
    span = records[-1].timestamp - records[0].timestamp
    print(f"trace: {source}")
    print(f"  {len(records)} requests over {span:.0f}s from "
          f"{clients} clients")
    for mime in sorted(by_mime):
        count, total_bytes = by_mime[mime]
        print(f"  {mime:<26} {count / len(records):6.1%}  "
              f"mean {total_bytes / count:8.0f} B")
    for scale, stats in sorted(
            burstiness_report(records).items(), reverse=True):
        print(f"  {scale:g}s buckets: avg {stats['avg_rps']:.1f} "
              f"req/s, peak {stats['peak_rps']:.1f}, dispersion "
              f"{stats['dispersion']:.1f}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command is None or args.command == "list":
            print(list_experiments())
            return 0
        if args.command == "chaos":
            return chaos_command(args)
        if args.command == "trace":
            return trace_command(args)
        if args.command == "spans":
            return spans_command(args)
        if args.experiment == "all":
            names = sorted(EXPERIMENTS)
        elif args.experiment in EXPERIMENTS:
            names = [args.experiment]
        else:
            print(f"unknown experiment {args.experiment!r}\n",
                  file=sys.stderr)
            print(list_experiments(), file=sys.stderr)
            return 2
        if args.policy is not None:
            unsupported = [name for name in names
                           if not EXPERIMENTS[name].accepts("policies")]
            if unsupported:
                aware = [name for name in sorted(EXPERIMENTS)
                         if EXPERIMENTS[name].accepts("policies")]
                print(f"--policy only applies to: {', '.join(aware)} "
                      f"(got {', '.join(unsupported)})",
                      file=sys.stderr)
                return 2
            error = _check_policy_spec(args.policy)
            if error is not None:
                print(error, file=sys.stderr)
                return 2
        with _span_tracing(args):
            any_failed = _run_names(names, args)
        if any_failed:
            return 1
    except BrokenPipeError:
        # output piped into e.g. `head`; exit quietly like a good CLI
        return 0
    return 0
