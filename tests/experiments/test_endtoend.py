"""Quick-scale validation of the end-to-end latency experiment."""

import pytest

from repro.experiments.endtoend_latency import (
    MODEM_14_4_BPS,
    MODEM_28_8_BPS,
    ModemDelivery,
    run_endtoend,
)


def test_endtoend_reduction_in_paper_neighbourhood():
    result = run_endtoend(n_requests=150, seed=7)
    assert 2.0 < result.mean_reduction < 10.0
    assert result.distilled_p90_s < result.original_p90_s
    rendered = result.render()
    assert "latency reduction" in rendered
    assert "3-5x" in rendered


def test_modem_assignment_alternates():
    class FakeTranSend:
        class cluster:
            env = None

    delivery = ModemDelivery.__new__(ModemDelivery)
    delivery.transend = None
    assert ModemDelivery.modem_bps(delivery, "client0") == MODEM_14_4_BPS
    assert ModemDelivery.modem_bps(delivery, "client1") == MODEM_28_8_BPS
    assert ModemDelivery.modem_bps(delivery, "client2") == MODEM_14_4_BPS
