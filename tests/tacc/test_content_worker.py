"""Tests for Content, TACCRequest, and worker base classes."""

import dataclasses
import pickle

import pytest

from repro.tacc.content import (
    MIME_GIF,
    MIME_HTML,
    MIME_JPEG,
    Content,
    FrozenMetadata,
    ZeroPayload,
)
from repro.tacc.worker import (
    Aggregator,
    TACCRequest,
    Transformer,
    Worker,
    WorkerError,
)


def make_content(size=1000, mime=MIME_GIF, url="http://x/a.gif"):
    return Content(url=url, mime=mime, data=b"x" * size)


# -- Content -------------------------------------------------------------------

def test_content_size_and_repr():
    content = make_content(123)
    assert content.size == 123
    assert "123B" in repr(content)
    assert not content.is_derived


def test_derive_records_provenance_and_original_size():
    original = make_content(10000)
    derived = original.derive(b"y" * 1500, mime=MIME_JPEG,
                              worker="gif-distiller", quality=25)
    assert derived.is_derived
    assert derived.mime == MIME_JPEG
    assert derived.metadata["derived_by"] == "gif-distiller"
    assert derived.metadata["original_size"] == 10000
    assert derived.metadata["quality"] == 25
    assert derived.reduction_factor() == pytest.approx(10000 / 1500)


def test_derive_chain_keeps_first_original_size():
    first = make_content(10000).derive(b"y" * 4000, worker="w1")
    second = first.derive(b"z" * 1000, worker="w2")
    assert second.metadata["original_size"] == 10000
    assert second.reduction_factor() == pytest.approx(10.0)


def test_with_metadata_does_not_mutate_original():
    content = make_content()
    tagged = content.with_metadata(cached=True)
    assert tagged.metadata["cached"] is True
    assert "cached" not in content.metadata


def test_slotted_content_survives_pickle_replace_and_derive():
    shared = FrozenMetadata(origin="sim")
    for content in (make_content(300),
                    Content("http://x/z.gif", MIME_GIF, ZeroPayload(5000),
                            shared)):
        assert not hasattr(content, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            content.url = "http://elsewhere/"
        copy = pickle.loads(pickle.dumps(content))
        assert copy == content and copy.size == content.size
        assert type(copy.metadata) is type(content.metadata)
        moved = dataclasses.replace(content, url="http://y/a.gif")
        assert (moved.url, moved.size, moved.metadata) \
            == ("http://y/a.gif", content.size, content.metadata)
        resized = dataclasses.replace(content, data=b"q" * 7)
        assert resized.size == 7
        derived = content.derive(b"d" * 10, worker="w", quality=5)
        assert derived.size == 10 and derived.is_derived
        assert derived.metadata["original_size"] == content.size
        assert derived.metadata["quality"] == 5
        assert "derived_by" not in content.metadata
    assert shared == {"origin": "sim"}


def test_frozen_metadata_refuses_every_change_in_place():
    shared = FrozenMetadata(origin="sim")
    changes = (lambda: shared.__setitem__("k", 1),
               lambda: shared.__delitem__("origin"),
               lambda: shared.update(k=1), lambda: shared.pop("origin"),
               lambda: shared.popitem(), lambda: shared.clear(),
               lambda: shared.setdefault("k", 1))
    for change in changes:
        with pytest.raises(TypeError):
            change()
    with pytest.raises(TypeError):
        shared |= {"k": 1}
    assert shared == {"origin": "sim"} and shared.get("origin") == "sim"
    assert shared | {"k": 1} == {"origin": "sim", "k": 1}


# -- TACCRequest ------------------------------------------------------------------

def test_request_single_content_accessor():
    request = TACCRequest(inputs=[make_content()])
    assert request.content.size == 1000
    multi = TACCRequest(inputs=[make_content(), make_content()])
    with pytest.raises(WorkerError):
        _ = multi.content


def test_param_prefers_explicit_over_profile():
    request = TACCRequest(
        inputs=[make_content()],
        params={"quality": 25},
        profile={"quality": 75, "max_width": 320},
    )
    assert request.param("quality") == 25
    assert request.param("max_width") == 320
    assert request.param("absent", "fallback") == "fallback"


# -- workers ------------------------------------------------------------------------

def test_default_work_estimate_is_8ms_per_kb():
    worker = Worker()
    request = TACCRequest(inputs=[make_content(size=10 * 1024)])
    assert worker.work_estimate(request) == pytest.approx(0.08)


def test_accepts_mime_empty_means_everything():
    worker = Worker()
    assert worker.accepts_mime(MIME_GIF)

    class GifOnly(Worker):
        accepts = (MIME_GIF,)

    assert GifOnly().accepts_mime(MIME_GIF)
    assert not GifOnly().accepts_mime(MIME_HTML)


def test_transformer_dispatches_to_transform():
    class Upper(Transformer):
        def transform(self, content, request):
            return content.derive(content.data.upper(), worker="upper")

    result = Upper().run(TACCRequest(
        inputs=[Content("u", MIME_HTML, b"abc")]))
    assert result.data == b"ABC"


def test_aggregator_requires_inputs_and_collates():
    class Concat(Aggregator):
        def aggregate(self, inputs, request):
            joined = b"".join(c.data for c in inputs)
            return inputs[0].derive(joined, worker="concat")

    inputs = [Content("u1", MIME_HTML, b"aa"), Content("u2", MIME_HTML, b"bb")]
    result = Concat().run(TACCRequest(inputs=inputs))
    assert result.data == b"aabb"
    with pytest.raises(WorkerError):
        Concat().run(TACCRequest(inputs=[]))
