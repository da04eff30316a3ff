"""Tests for the TACC SDK conformance bench (``tacc_services.sdk``)."""

import pytest

from repro.distillers.gif import GifDistiller
from repro.distillers.html import HtmlMunger
from repro.distillers.images import generate_photo
from repro.distillers.jpeg import JpegDistiller
from repro.sim.rng import RandomStreams
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG, Content
from repro.tacc.worker import TACCRequest, Transformer, WorkerError

from tacc_services.keyword_filter import KeywordFilter
from tacc_services.sdk import BenchReport, WorkerBench, check_worker
from tacc_services.thinclient import ThinClientSimplifier


@pytest.fixture(scope="module")
def photo():
    return generate_photo(RandomStreams(9).stream("sdk"), 120, 90)


def gif_fixture(photo):
    return TACCRequest(
        inputs=[Content("http://x/p.gif", MIME_GIF, photo.encode_gif())],
        params={"scale": 2, "quality": 25})


def html_fixture():
    return TACCRequest(
        inputs=[Content("http://x/p.html", MIME_HTML,
                        b"<html><body><h1>T</h1>"
                        b'<img src="http://x/a.gif"><p>text</p>'
                        b"</body></html>")],
        profile={"filter_pattern": "text"})


def garbage(mime):
    return TACCRequest(inputs=[Content("http://x/garbage", mime,
                                       b"\x00garbage\xff" * 10)])


# -- all shipped workers conform ------------------------------------------------

@pytest.mark.parametrize("worker_class,fixture_factory,garbage_mime", [
    (GifDistiller, "gif", MIME_GIF),
    (JpegDistiller, "jpeg", MIME_JPEG),
    (HtmlMunger, "html", None),
    (KeywordFilter, "html", None),
    (ThinClientSimplifier, "html", None),
])
def test_shipped_workers_pass_the_bench(worker_class, fixture_factory,
                                        garbage_mime, photo):
    if fixture_factory == "gif":
        fixtures = [gif_fixture(photo)]
    elif fixture_factory == "jpeg":
        fixtures = [TACCRequest(
            inputs=[Content("http://x/p.jpg", MIME_JPEG,
                            photo.encode_jpeg(90))],
            params={"scale": 2, "quality": 25})]
    else:
        fixtures = [html_fixture()]
    garbage_request = garbage(garbage_mime) if garbage_mime else None
    report = check_worker(worker_class, fixtures, garbage_request)
    assert report.passed, report.render()
    assert worker_class.worker_type in report.render()


# -- the bench actually catches violations ------------------------------------------

def test_bench_catches_stateful_worker(photo):
    class Counter(Transformer):
        worker_type = "stateful-counter"

        def __init__(self):
            self.count = 0

        def transform(self, content, request):
            self.count += 1
            return content.derive(
                f"call {self.count}".encode(), worker=self.worker_type)

    report = check_worker(Counter, [html_fixture()])
    assert not report.passed
    assert any("stateless" in failure.name
               for failure in report.failures())


def test_bench_catches_mime_liar():
    class Liar(Transformer):
        worker_type = "mime-liar"
        accepts = (MIME_HTML,)
        produces = MIME_JPEG   # claims JPEG, emits HTML

        def transform(self, content, request):
            return content.derive(content.data, mime=MIME_HTML,
                                  worker=self.worker_type)

    report = check_worker(Liar, [html_fixture()])
    assert not report.passed
    assert any("MIME" in failure.name for failure in report.failures())


def test_bench_catches_bad_cost_model():
    class NegativeCost(Transformer):
        worker_type = "negative-cost"

        def transform(self, content, request):
            return content

        def work_estimate(self, request):
            return -1.0

    report = check_worker(NegativeCost, [html_fixture()])
    assert not report.passed
    assert any("cost" in failure.name for failure in report.failures())


def test_bench_catches_undisciplined_failure(photo):
    class Crasher(Transformer):
        worker_type = "crasher"

        def transform(self, content, request):
            if b"garbage" in content.data:
                raise ZeroDivisionError("oops")  # not a WorkerError
            return content

    report = check_worker(Crasher, [html_fixture()],
                          garbage=garbage(MIME_HTML))
    assert not report.passed
    assert any("failure discipline" in failure.name
               for failure in report.failures())


def test_bench_catches_anonymous_worker_type():
    class Anonymous(Transformer):
        # worker_type left at the base-class default
        def transform(self, content, request):
            return content

    report = check_worker(Anonymous, [html_fixture()])
    assert not report.passed
    assert any("registrable" in failure.name
               for failure in report.failures())


def test_bench_catches_dishonest_size_model():
    class TinySim(Transformer):
        worker_type = "tiny-sim"

        def transform(self, content, request):
            return content.derive(content.data, worker=self.worker_type)

        def simulate(self, request):
            content = request.content
            return content.derive(b"x", worker=self.worker_type)

    report = check_worker(TinySim, [html_fixture()])
    assert not report.passed
    assert any("size model" in failure.name
               for failure in report.failures())


def test_bench_requires_fixtures():
    with pytest.raises(ValueError):
        WorkerBench(HtmlMunger, fixtures=[])


def test_report_render_lists_all_checks():
    report = check_worker(HtmlMunger, [html_fixture()])
    rendered = report.render()
    assert rendered.count("[PASS]") == 6
    assert "OK" in rendered
