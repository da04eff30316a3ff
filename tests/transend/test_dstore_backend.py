"""TranSend with the replicated brick backend for the profile store:
same request-path behaviour, but preferences survive a brick kill."""

import pytest

from repro.core.config import SNSConfig
from repro.dstore import QuorumCoordinator
from repro.tacc.content import MIME_JPEG
from repro.tacc.customization import TransactionError
from repro.transend.service import TranSend
from repro.workload.trace import TraceRecord


def fast_config(**overrides):
    defaults = dict(
        dispatch_timeout_s=3.0,
        spawn_damping_s=4.0,
        frontend_connection_overhead_s=0.001,
    )
    defaults.update(overrides)
    return SNSConfig(**defaults)


def make_transend(**kwargs):
    kwargs.setdefault("config", fast_config(profile_backend="dstore"))
    kwargs.setdefault("seed", 13)
    return TranSend(**kwargs)


def record(client="client1"):
    return TraceRecord(timestamp=0.0, client_id=client,
                       url="http://pics/a.jpg", mime=MIME_JPEG,
                       size_bytes=10240)


def test_dstore_backend_wires_bricks_into_fabric():
    transend = make_transend()
    assert isinstance(transend.profile_store.backend, QuorumCoordinator)
    assert transend.profile_bricks is not None
    assert transend.fabric.profile_bricks is transend.profile_bricks
    assert len(transend.fabric.brick_population()) == 3


def test_transend_takes_its_profile_backend_from_the_config():
    """TranSend had its own ``profile_backend`` argument, so a config
    asking for the brick store silently got the single WAL store."""
    dstore = TranSend(config=SNSConfig(profile_backend="dstore"))
    assert isinstance(dstore.profile_store.backend, QuorumCoordinator)
    assert len(dstore.fabric.brick_population()) == 3
    # TranSend always has a profile database (Section 2.3)
    single = TranSend(config=SNSConfig())
    assert single.profile_store is not None
    assert single.profile_bricks is None


def test_preferences_shape_distillation_through_bricks():
    transend = make_transend().start(
        initial_workers={"jpeg-distiller": 1})
    transend.set_preference("client2", "quality", 75)
    first = transend.run(transend.submit(record(client="client1")))
    second = transend.run(transend.submit(record(client="client2")))
    assert first.path == "distilled"
    assert second.path == "distilled"
    assert second.size_bytes > first.size_bytes


def test_preference_validator_still_enforced():
    transend = make_transend().start()
    with pytest.raises(TransactionError):
        transend.set_preference("client1", "quality", 5000)


def test_preferences_survive_a_brick_kill():
    """The point of the backend: kill any one brick and every stored
    preference is still readable through the surviving replicas."""
    transend = make_transend().start()
    for index in range(12):
        transend.set_preference(f"client{index}", "quality", 20 + index)
    transend.profile_bricks.brick_at(1).kill()
    store = transend.profile_store
    for index in range(12):
        assert store.get_value(f"client{index}", "quality") == 20 + index
    assert store.backend.verify_committed() == []


def test_dstore_rejects_wal_path():
    with pytest.raises(ValueError):
        make_transend(profile_log_path="/tmp/profiles.wal")
    with pytest.raises(ValueError):
        make_transend(config=fast_config(profile_backend="bogus"))
