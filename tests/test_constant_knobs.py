"""Knobs that no shipped caller sets to a second value are module
constants (tests and examples do not count as callers).

Each row passes one such name as a keyword where it used to be
accepted; it is a ``TypeError`` now, so the value it used to carry can
only be changed where its one reader defines it.  No shipped file reads
one back through a config or policy object either.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from repro.core.config import SNSConfig
from repro.core.fabric import SNSFabric
from repro.core.monitor import Monitor
from repro.core.process_pair import SecondaryManager
from repro.dstore.store import QuorumCoordinator
from repro.experiments._harness import build_bench_fabric
from repro.hotbot.service import HotBotConfig
from repro.recovery.policy import RecoveryPolicy
from repro.sim.multicast import MulticastGroup
from repro.transend.cachesys import CacheSubsystem
from repro.transend.service import TranSend

SNS_CONFIG_CONSTANTS = (
    "load_ewma_alpha", "reap_threshold", "dispatch_backoff_factor",
    "degrade_tick_s", "degrade_enter_pressure", "degrade_exit_pressure",
    "degrade_dwell_ticks", "degrade_deadline_s", "policy_canary_fraction",
    "outlier_latency_ratio", "outlier_min_peers", "outlier_window_s",
    "outlier_ejection_s", "outlier_max_ejection_s", "reap_drain_timeout_s",
    "policy_hash_bound", "outlier_min_samples", "outlier_timeout_threshold",
    "dispatch_backoff_base_s", "dispatch_backoff_cap_s",
    "dispatch_backoff_jitter", "degrade_hold_ticks", "degrade_max_level",
)
HOTBOT_CONFIG_CONSTANTS = ("query_per_posting_s", "cross_mount_penalty",
                           "top_k", "db_capacity_rps", "db_failover_s")
RECOVERY_POLICY_CONSTANTS = (
    "probe_slow_ratio", "outlier_min_peers", "restart_backoff_factor",
    "restart_backoff_jitter", "restart_budget", "restart_budget_window_s",
    "flap_threshold", "flap_window_s", "heal_wait_periods",
)


@pytest.mark.parametrize("name, build", [
    *((name, lambda name=name: SNSConfig(**{name: 1.0}))
      for name in SNS_CONFIG_CONSTANTS),
    *((name, lambda name=name: HotBotConfig(**{name: 1.0}))
      for name in HOTBOT_CONFIG_CONSTANTS),
    *(pytest.param(name, lambda name=name: RecoveryPolicy(**{name: 1.0}),
                   id=f"RecoveryPolicy.{name}")
      for name in RECOVERY_POLICY_CONSTANTS),
    ("n_overflow", lambda: TranSend(n_overflow=2)),
    ("san_bandwidth_bps", lambda: TranSend(san_bandwidth_bps=1e8)),
    ("internet_bandwidth_bps", lambda: TranSend(internet_bandwidth_bps=1e7)),
    ("profile_backend", lambda: TranSend(profile_backend="dstore")),
    ("frontend_link_bandwidth_bps",
     lambda: build_bench_fabric(frontend_link_bandwidth_bps=1e8)),
    ("frontend_link_bandwidth_bps",
     lambda: SNSFabric(None, None, SNSConfig(), None,
                       frontend_link_bandwidth_bps=1e8)),
    ("execute_real",
     lambda: SNSFabric.spawn_worker(None, "jpeg-distiller",
                                    execute_real=True)),
    ("lookup_timeout_s", lambda: CacheSubsystem(None, lookup_timeout_s=2.0)),
    ("silence_intervals",
     lambda: SecondaryManager(None, None, "manager.secondary", SNSConfig(),
                              None, silence_intervals=3)),
    ("write_quorum", lambda: QuorumCoordinator(None, write_quorum=1)),
    ("silence_threshold_s",
     lambda: Monitor(None, None, "monitor", SNSConfig(),
                     silence_threshold_s=3.0)),
    ("on_alert",
     lambda: Monitor(None, None, "monitor", SNSConfig(), on_alert=print)),
    ("silence_threshold_s",
     lambda: SNSFabric.start_monitor(None, silence_threshold_s=3.0)),
    ("mailbox_capacity",
     lambda: MulticastGroup(None, None, "g", None, mailbox_capacity=2)),
])
def test_single_value_knobs_are_constants(name, build):
    with pytest.raises(TypeError, match=name):
        build()


def test_no_shipped_file_reads_a_constant_back_through_its_owner():
    root = Path(__file__).resolve().parents[1]
    pattern = re.compile(
        r"\bconfig\.(%s)\b|\bpolicy\.(%s)\b" % (
            "|".join(SNS_CONFIG_CONSTANTS + HOTBOT_CONFIG_CONSTANTS),
            "|".join(RECOVERY_POLICY_CONSTANTS)))
    hits = [f"{path.relative_to(root)}:{number}: {line.strip()}"
            for directory in ("src", "benchmarks", "examples")
            for path in sorted((root / directory).rglob("*.py"))
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert not hits, "\n".join(hits)


#: defaulted parameters no shipped entry point set to a second value
#: (the reachability ledger's parameter section): each is a constant
#: beside its reader now, or is inlined.  ``(module, callable path,
#: parameter)``; the callable is called with only that keyword.
REMOVED_PARAMETERS = (
    ("repro.fanout.pool", "run_sharded", "timeout_s"),
    ("repro.fanout.pool", "run_sharded", "retries"),
    ("repro.fanout.pool", "run_sharded", "mp_context"),
    ("repro.fanout.shard", "ShardSpec", "timeout_s"),
    ("repro.fanout.shard", "ShardSpec", "retries"),
    ("repro.fanout.shard", "ShardResult", "attempts"),
    ("repro.experiments._harness", "run_grid", "timeout_s"),
    ("repro.experiments._harness", "run_grid", "retries"),
    ("repro.experiments._harness", "run_grid", "progress"),
    ("repro.chaos.batch", "run_campaign_batch", "timeout_s"),
    ("repro.chaos.batch", "run_campaign_batch", "retries"),
    ("repro.sim.network", "Network.transfer_delay", "access_link"),
    ("repro.sim.network", "PartitionState.split", "start"),
    ("repro.sim.network", "PartitionState.one_way", "start"),
    ("repro.sim.network", "NetworkFaults.channel_penalty", "scope"),
    ("repro.sim.network", "Network", "latency_s"),
    ("repro.sim.network", "Network.add_utility_network", "bandwidth_bps"),
    ("repro.sim.network", "Network.add_utility_network", "latency_s"),
    ("repro.sim.network", "Network.add_access_link", "latency_s"),
    ("repro.sim.network", "UtilizationMeter", "window"),
    ("repro.sim.network", "UtilizationMeter", "buckets"),
    ("repro.sim.transport", "Channel.connect", "setup_s"),
    ("repro.sim.cluster", "Cluster", "env"),
    ("repro.sim.cluster", "Cluster", "san_latency_s"),
    ("repro.sim.cluster", "Cluster.add_node", "cpus"),
    ("repro.sim.cluster", "Cluster.least_loaded_node", "include_overflow"),
    ("repro.sim.node", "Node", "cpus"),
    ("repro.sim.node", "Node", "memory_mb"),
    ("repro.sim.node", "Node", "has_disk"),
    ("repro.sim.kernel", "Timeout", "value"),
    ("repro.sim.kernel", "Environment.timeout", "value"),
    ("repro.chaos.invariants", "InvariantChecker", "reregister_periods"),
    ("repro.chaos.invariants", "InvariantChecker.expect_reregistration",
     "periods"),
    ("repro.chaos.invariants", "InvariantChecker.expect_convergence",
     "within_s"),
    ("repro.core.fabric", "SNSFabric.start_supervisor", "node"),
    ("repro.core.fabric", "SNSFabric.start_degradation", "signals"),
    ("repro.core.fabric", "SNSFabric.boot", "with_monitor"),
    ("repro.distillers.base", "DistillerLatencyModel", "noise_sigma"),
    ("repro.distillers.images", "photo_sized_for", "max_iterations"),
    ("repro.domains", "finite", "optional"),
    ("repro.domains", "count", "most"),
    ("repro.dstore.cluster", "BrickCluster", "n_bricks"),
    ("repro.dstore.cluster", "BrickCluster", "replicas"),
    ("repro.dstore.cluster", "BrickCluster", "n_partitions"),
    ("repro.experiments.figure6_burstiness", "run_figure6",
     "mean_rate_rps"),
    ("repro.experiments.figure8_selftuning", "run_figure8", "config"),
    ("repro.experiments.table2_scalability", "run_table2", "config"),
    ("repro.experiments.cache_hitrate", "run_population_sweep",
     "capacity_bytes"),
    ("repro.experiments.cache_hitrate", "_population_trace",
     "n_shared_docs"),
    ("repro.experiments.manager_capacity", "run_manager_capacity",
     "n_distillers"),
    ("repro.experiments.manager_capacity", "run_manager_capacity",
     "report_interval_s"),
    ("repro.experiments.san_saturation", "run_san_saturation", "rate_rps"),
    ("repro.experiments.san_saturation", "run_san_saturation",
     "image_bytes"),
    ("repro.experiments.san_saturation", "run_san_saturation",
     "include_utility"),
    ("repro.experiments.policy_sweep", "run_policy_sweep", "rate_rps"),
    ("repro.experiments.policy_sweep", "run_policy_sweep", "n_workers"),
    ("repro.experiments.policy_sweep", "run_policy_arm", "image_bytes"),
    ("repro.experiments.policy_sweep", "run_policy_arm", "inject_fraction"),
    ("repro.hotbot.documents", "Corpus.vocabulary_sample", "alpha"),
    ("repro.hotbot.documents", "Corpus", "vocabulary_size"),
    ("repro.hotbot.documents", "Corpus", "mean_length"),
    ("repro.hotbot.documents", "Corpus", "zipf_alpha"),
    ("repro.hotbot.query_cache", "QueryCache", "capacity_bytes"),
    ("repro.hotbot.query_cache", "QueryCache", "depth"),
    ("repro.cache.latency", "HarvestLatencyModel", "mean_hit_s"),
    ("repro.cache.latency", "HarvestLatencyModel", "tcp_overhead_s"),
    ("repro.cache.latency", "HarvestLatencyModel", "miss_max_s"),
    ("repro.hotbot.index", "InvertedIndex", "global_df"),
    ("repro.obs.attribution", "render_span_tree", "clock_origin"),
    ("repro.obs.export", "chrome_trace_events", "include_unfinished"),
    ("repro.obs.export", "export_chrome_trace", "include_unfinished"),
    ("repro.obs.runtime", "attach_to_new_cluster", "label"),
    ("repro.obs.runtime", "capture_traces", "max_traces"),
    ("repro.obs.trace", "Tracer", "max_traces"),
    ("repro.obs.trace", "install_tracer", "max_traces"),
    ("repro.obs.trace", "Span.finish", "end"),
    ("repro.obs.trace", "Span.record", "end"),
    ("repro.obs.trace", "Tracer.open_trace", "annotations"),
    ("repro.obs.trace", "Tracer.open_aux_trace", "category"),
    ("repro.analysis.metrics", "yield_recovery_time", "target"),
    ("repro.analysis.reporting", "render_series", "width"),
    ("tacc_services.rewebber", "rewebber_keypair", "secret"),
    ("tacc_services.pipeline", "Pipeline.validate", "input_mime"),
    ("tacc_services.pipeline", "Pipeline.execute", "trace"),
    ("repro.transend.cachesys", "CacheSubsystem.add_node", "name"),
    ("repro.transend.service", "TranSend.start", "warmup_s"),
    ("repro.transend.service", "TranSend", "real_content"),
    ("repro.transend.service", "TranSend", "adaptive"),
    ("repro.transend.service", "TranSendLogic", "adaptation"),
    ("repro.transend.origin", "OriginServer", "real_content"),
    ("repro.core.fabric", "SNSFabric", "execute_real"),
    ("repro.core.worker_stub", "WorkerStub", "execute_real"),
    ("repro.workload.tracegen", "DocumentUniverse", "mime_mix"),
    ("repro.workload.tracegen", "DocumentUniverse", "size_models"),
    ("repro.workload.tracegen", "BurstCascade", "periods_s"),
    ("repro.workload.tracegen", "daily_cycle_factor", "trough_hour"),
    ("repro.workload.tracegen", "daily_cycle_factor", "amplitude"),
    ("repro.workload.tracegen", "iter_fixed_jpeg_trace", "n_images"),
    ("repro.workload.tracegen", "iter_fixed_jpeg_trace", "image_size_bytes"),
    ("repro.workload.tracegen", "iter_fixed_jpeg_trace", "n_clients"),
    ("repro.workload.burstiness", "burstiness_report", "scales_s"),
    ("repro.workload.distributions", "size_histogram", "bins_per_decade"),
    ("repro.workload.distributions", "size_histogram", "max_exponent"),
)


@pytest.mark.parametrize(
    "module, path, parameter", REMOVED_PARAMETERS,
    ids=[f"{path}.{parameter}" for _, path, parameter
         in REMOVED_PARAMETERS])
def test_never_set_parameters_are_constants(module, path, parameter):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    with pytest.raises(TypeError, match=parameter):
        target(**{parameter: 1})


def test_config_field_counts():
    assert len(dataclasses.fields(SNSConfig)) == 29
    assert len(dataclasses.fields(HotBotConfig)) == 6
    assert len(dataclasses.fields(RecoveryPolicy)) == 6
