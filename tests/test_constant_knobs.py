"""Knobs that every caller left at their default are module constants.

Each row passes one such name as a keyword where it used to be
accepted; it is a ``TypeError`` now, so the value it used to carry can
only be changed where its one reader defines it.
"""

import dataclasses

import pytest

from repro.core.config import SNSConfig
from repro.core.fabric import SNSFabric
from repro.core.process_pair import SecondaryManager
from repro.dstore.store import QuorumCoordinator
from repro.experiments._harness import build_bench_fabric
from repro.hotbot.service import HotBotConfig
from repro.transend.cachesys import CacheSubsystem
from repro.transend.service import TranSend

SNS_CONFIG_CONSTANTS = (
    "load_ewma_alpha", "reap_threshold", "dispatch_backoff_factor",
    "degrade_tick_s", "degrade_enter_pressure", "degrade_exit_pressure",
    "degrade_dwell_ticks", "degrade_deadline_s", "policy_canary_fraction",
    "outlier_latency_ratio", "outlier_min_peers", "outlier_window_s",
    "outlier_ejection_s", "outlier_max_ejection_s", "reap_drain_timeout_s",
)
HOTBOT_CONFIG_CONSTANTS = ("query_per_posting_s", "cross_mount_penalty")


@pytest.mark.parametrize("name, build", [
    *((name, lambda name=name: SNSConfig(**{name: 1.0}))
      for name in SNS_CONFIG_CONSTANTS),
    *((name, lambda name=name: HotBotConfig(**{name: 1.0}))
      for name in HOTBOT_CONFIG_CONSTANTS),
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
])
def test_single_value_knobs_are_constants(name, build):
    with pytest.raises(TypeError, match=name):
        build()


def test_config_field_counts():
    assert len(dataclasses.fields(SNSConfig)) == 37
    assert len(dataclasses.fields(HotBotConfig)) == 9
