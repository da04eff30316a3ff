"""Tests for pipelines and the worker registry."""

import pytest

from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG, Content
from repro.tacc.pipeline import Pipeline, PipelineError
from repro.tacc.registry import RegistryError, WorkerRegistry
from repro.tacc.worker import TACCRequest, Transformer


class GifToJpeg(Transformer):
    worker_type = "gif2jpeg"
    accepts = (MIME_GIF,)
    produces = MIME_JPEG

    def transform(self, content, request):
        return content.derive(content.data[: max(1, content.size // 2)],
                              mime=MIME_JPEG, worker=self.worker_type)


class JpegShrink(Transformer):
    worker_type = "jpeg-shrink"
    accepts = (MIME_JPEG,)

    def transform(self, content, request):
        return content.derive(content.data[: max(1, content.size // 4)],
                              worker=self.worker_type)


class HtmlMunger(Transformer):
    worker_type = "html-mung"
    accepts = (MIME_HTML,)

    def transform(self, content, request):
        return content.derive(b"<toolbar/>" + content.data,
                              worker=self.worker_type)


@pytest.fixture
def registry():
    reg = WorkerRegistry()
    reg.register_class(GifToJpeg)
    reg.register_class(JpegShrink)
    reg.register_class(HtmlMunger)
    return reg


def gif(size=1000):
    return Content("http://x/a.gif", MIME_GIF, b"g" * size)


# -- registry ---------------------------------------------------------------

def test_registry_creates_fresh_instances(registry):
    first = registry.create("gif2jpeg")
    second = registry.create("gif2jpeg")
    assert first is not second
    assert isinstance(first, GifToJpeg)


def test_registry_rejects_duplicates_and_unknown(registry):
    with pytest.raises(RegistryError):
        registry.register_class(GifToJpeg)
    with pytest.raises(RegistryError):
        registry.create("nope")


def test_registry_rejects_non_worker_factory():
    reg = WorkerRegistry()
    reg.register("bad", lambda: object())
    with pytest.raises(RegistryError):
        reg.create("bad")


def test_registry_lists_types(registry):
    assert registry.types() == ["gif2jpeg", "html-mung", "jpeg-shrink"]
    assert "gif2jpeg" in registry


# -- pipeline --------------------------------------------------------------------

def test_pipeline_requires_stages():
    with pytest.raises(PipelineError):
        Pipeline([])


def test_pipeline_executes_in_order(registry):
    pipeline = Pipeline(["gif2jpeg", "jpeg-shrink"])
    result = pipeline.execute(registry, TACCRequest(inputs=[gif(1000)]))
    assert result.mime == MIME_JPEG
    assert result.size == 125  # 1000 -> 500 -> 125
    assert result.metadata["original_size"] == 1000


def test_pipeline_validate_checks_mime_chain(registry):
    Pipeline(["gif2jpeg", "jpeg-shrink"]).validate(registry, MIME_GIF)
    with pytest.raises(PipelineError):
        Pipeline(["jpeg-shrink"]).validate(registry, MIME_GIF)
    with pytest.raises(PipelineError):
        Pipeline(["missing-stage"]).validate(registry)
