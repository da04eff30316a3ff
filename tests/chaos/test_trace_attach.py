"""Chaos × tracing integration: an invariant violation must carry the
offending request's span tree when tracing sampled it."""

import dataclasses

from repro.chaos.campaign import CLIENT_TIMEOUT_S, get_campaign, run_campaign
from repro.obs import capture_traces


def forced_slo_campaign():
    """The smoke campaign with an SLO bound far below its observed
    latencies, so the bounded-reply check fails deterministically."""
    return dataclasses.replace(get_campaign("smoke"),
                               name="smoke-slo",
                               slo_latency_s=0.001)


def test_violation_attaches_offending_span_tree():
    with capture_traces() as tracers:
        report = run_campaign(forced_slo_campaign(), seed=3)
    assert not report.ok
    slo = [violation for violation in report.violations
           if violation.invariant == "bounded-reply"]
    assert slo, report.violations
    violation = slo[0]
    assert violation.trace_id is not None
    assert violation.span_tree is not None
    # the tree really is the request's causal timeline
    assert "request [other] @client" in violation.span_tree
    assert "frontend [service]" in violation.span_tree
    # and the rendered report inlines it under the violation
    rendered = report.render()
    assert f"offending request {violation.trace_id}:" in rendered
    assert "request [other] @client" in rendered


def test_violation_without_tracing_omits_span_tree():
    report = run_campaign(forced_slo_campaign(), seed=3)
    assert not report.ok
    violation = report.violations[0]
    assert violation.trace_id is None
    assert violation.span_tree is None
    assert "offending request" not in report.render()


def test_report_latency_summary_populated():
    report = run_campaign(get_campaign("smoke"), seed=7)
    assert report.latency["count"] > 0
    assert report.latency["p50"] <= report.latency["p95"] \
        <= report.latency["max"]
    # but the rendered report's byte format is unchanged: latency is
    # data, not a new output line
    assert "invariants all held" in report.render()


def test_slo_bound_defaults_to_client_timeout():
    campaign = get_campaign("smoke")
    assert campaign.slo_latency_s == CLIENT_TIMEOUT_S
    report = run_campaign(campaign, seed=7)
    assert report.ok
