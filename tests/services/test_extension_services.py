"""Tests for the five Section 5.1 extension services
(``tacc_services``, user code on the TACC layer)."""

import pytest

from repro.tacc.content import MIME_HTML, MIME_OCTET, MIME_PLAIN, Content
from repro.tacc.registry import WorkerRegistry
from repro.tacc.worker import TACCRequest, WorkerError

from tacc_services.culture_page import (
    CulturePageAggregator,
    extract_events,
)
from tacc_services.keyword_filter import KeywordFilter
from tacc_services.metasearch import (
    MetasearchAggregator,
    render_engine_results,
)
from tacc_services.pipeline import Pipeline
from tacc_services.rewebber import (
    DecryptWorker,
    EncryptWorker,
    rewebber_keypair,
)
from tacc_services.thinclient import ThinClientSimplifier


def html(body, url="http://site/page.html"):
    return Content(url, MIME_HTML,
                   f"<html><body>{body}</body></html>".encode())


# -- keyword filter ------------------------------------------------------------

def test_keyword_filter_marks_matches():
    content = html("<p>Python and more python here.</p>")
    request = TACCRequest(inputs=[content],
                          profile={"filter_pattern": r"python"})
    result = KeywordFilter().run(request)
    text = result.data.decode()
    assert text.count("color:red") == 2
    assert result.metadata["keywords_marked"] == 2


def test_keyword_filter_no_pattern_passes_through():
    content = html("<p>text</p>")
    result = KeywordFilter().run(TACCRequest(inputs=[content]))
    assert result is content


def test_keyword_filter_bad_pattern_is_worker_error():
    content = html("<p>x</p>")
    request = TACCRequest(inputs=[content],
                          profile={"filter_pattern": "("})
    with pytest.raises(WorkerError):
        KeywordFilter().run(request)


def test_keyword_filter_pattern_length_capped():
    request = TACCRequest(inputs=[html("<p>x</p>")],
                          profile={"filter_pattern": "a" * 500})
    with pytest.raises(WorkerError):
        KeywordFilter().run(request)


# -- metasearch --------------------------------------------------------------------

def engine_pages():
    return [
        render_engine_results("alpha", [
            ("http://r/1", "One"), ("http://r/2", "Two"),
            ("http://r/3", "Three"),
        ]),
        render_engine_results("beta", [
            ("http://r/2", "Two again"), ("http://r/4", "Four"),
        ]),
    ]


def test_metasearch_interleaves_and_dedupes():
    request = TACCRequest(inputs=engine_pages(),
                          params={"query": "test"})
    result = MetasearchAggregator().run(request)
    page = result.data.decode()
    # interleaved rank order with r/2 deduplicated
    assert page.index("http://r/1") < page.index("http://r/2")
    assert page.index("http://r/2") < page.index("http://r/3")
    assert page.count("http://r/2") == 1
    assert result.metadata["results"] == 4
    assert result.metadata["engines"] == 2
    assert "Metasearch: test" in page


def test_metasearch_respects_max_results():
    request = TACCRequest(inputs=engine_pages(),
                          profile={"max_results": 2})
    result = MetasearchAggregator().run(request)
    assert result.metadata["results"] == 2


def test_metasearch_from_hotbot_hits():
    """Adapting a real backend: HotBot hits -> metasearch input."""
    from repro.hotbot.service import HotBot, HotBotConfig
    hotbot = HotBot(config=HotBotConfig(n_workers=2, n_docs=200), seed=3)
    result = hotbot.run_until(hotbot.submit(["w2"]))
    page = render_engine_results(
        "hotbot", [(hit.url, f"doc{hit.doc_id}") for hit in result.hits])
    merged = MetasearchAggregator().run(TACCRequest(inputs=[page]))
    assert merged.metadata["results"] == len(result.hits)


# -- culture page --------------------------------------------------------------------

CULTURE_HTML = """
<h2>Opera Calendar</h2>
<p>La Boheme opens October 14 at the War Memorial.</p>
<p>Symphony gala: Nov 3, tickets from $20.</p>
<p>Our site had 3/4 uptime last month (not an event!).</p>
<p>Jazz festival runs 7/21 on the waterfront.</p>
"""


def test_extract_events_finds_real_dates():
    events = extract_events(html(CULTURE_HTML))
    keys = {event.date_key for event in events}
    assert (10, 14) in keys
    assert (11, 3) in keys
    assert (7, 21) in keys


def test_extract_events_picks_up_spurious_dates_too():
    """The BASE tradeoff: ~10-20% of extractions are noise ('3/4
    uptime'), and that is acceptable."""
    events = extract_events(html(CULTURE_HTML))
    keys = [event.date_key for event in events]
    assert (3, 4) in keys  # the spurious one
    spurious_fraction = 1 / len(keys)
    assert spurious_fraction < 0.5  # still mostly useful


def test_culture_page_collates_sorted_and_windowed():
    request = TACCRequest(
        inputs=[html(CULTURE_HTML)],
        profile={"calendar_start": (7, 1), "calendar_end": (10, 31)})
    result = CulturePageAggregator().run(request)
    page = result.data.decode()
    assert "07/21" in page
    assert "10/14" in page
    assert "11/03" not in page  # outside the user's window
    assert page.index("07/21") < page.index("10/14")  # sorted


def test_culture_page_multiple_sources():
    pages = [
        html("<p>Ballet on May 5.</p>", url="http://a"),
        html("<p>Reading on May 2.</p>", url="http://b"),
    ]
    result = CulturePageAggregator().run(TACCRequest(inputs=pages))
    assert result.metadata["pages_scraped"] == 2
    page = result.data.decode()
    assert page.index("05/02") < page.index("05/05")


# -- rewebber ---------------------------------------------------------------------------

def test_encrypt_decrypt_round_trip():
    _, key = rewebber_keypair("server-a")
    secret_page = html("<p>anonymous manifesto</p>")
    request = TACCRequest(inputs=[secret_page],
                          profile={"rewebber_key": key})
    sealed = EncryptWorker().run(request)
    assert sealed.mime == MIME_OCTET
    assert sealed.data != secret_page.data
    opened = DecryptWorker().run(
        TACCRequest(inputs=[sealed], profile={"rewebber_key": key}))
    assert opened.data == secret_page.data
    assert opened.mime == MIME_HTML  # restored from sealed_mime


def test_decrypt_with_wrong_key_produces_garbage_not_error():
    _, key_a = rewebber_keypair("server-a")
    _, key_b = rewebber_keypair("server-b")
    sealed = EncryptWorker().run(TACCRequest(
        inputs=[html("<p>x</p>")], profile={"rewebber_key": key_a}))
    garbled = DecryptWorker().run(TACCRequest(
        inputs=[sealed], profile={"rewebber_key": key_b}))
    assert garbled.data != b"<html><body><p>x</p></body></html>"


def test_rewebber_requires_key():
    with pytest.raises(WorkerError):
        EncryptWorker().run(TACCRequest(inputs=[html("<p>x</p>")]))


def test_rewebber_chain_as_pipeline():
    """Onion routing through TACC composition: two encryption layers,
    peeled in reverse order."""
    _, inner_key = rewebber_keypair("inner")
    _, outer_key = rewebber_keypair("outer")
    page = html("<p>hidden</p>")
    sealed_inner = EncryptWorker().run(TACCRequest(
        inputs=[page], profile={"rewebber_key": inner_key}))
    sealed_outer = EncryptWorker().run(TACCRequest(
        inputs=[sealed_inner], profile={"rewebber_key": outer_key}))
    peeled_outer = DecryptWorker().run(TACCRequest(
        inputs=[sealed_outer], profile={"rewebber_key": outer_key}))
    peeled_inner = DecryptWorker().run(TACCRequest(
        inputs=[peeled_outer], profile={"rewebber_key": inner_key}))
    assert peeled_inner.data == page.data


# -- thin client ---------------------------------------------------------------------------

PDA_PAGE = """
<h1>News</h1>
<p>A fairly long paragraph of text that will need wrapping for a tiny
PalmPilot screen because it exceeds thirty-two columns.</p>
<img src="http://img/banner.gif" width="480">
<a href="http://news/story1">Full story</a>
"""


def test_thinclient_outputs_micro_markup():
    result = ThinClientSimplifier().run(TACCRequest(
        inputs=[html(PDA_PAGE)]))
    assert result.mime == MIME_PLAIN
    lines = result.data.decode().splitlines()
    kinds = {line.split(" ", 1)[0] for line in lines if line}
    assert {"H", "I", "L", "T"} <= kinds
    # images reference pre-scaled variants for the 160 px screen
    assert any(line.startswith("I ") and "?w=160" in line
               for line in lines)


def test_thinclient_wraps_to_screen_columns():
    result = ThinClientSimplifier().run(TACCRequest(
        inputs=[html(PDA_PAGE)],
        profile={"screen_width": 100, "font_width": 5}))
    columns = result.metadata["columns"]
    assert columns == 20
    for line in result.data.decode().splitlines():
        if line.startswith("T "):
            assert len(line) - 2 <= columns + 12  # long words tolerated


def test_thinclient_via_pipeline_with_keyword_filter():
    """Composition across services: filter then simplify."""
    registry = WorkerRegistry()
    registry.register_class(KeywordFilter)
    registry.register_class(ThinClientSimplifier)
    pipeline = Pipeline(["keyword-filter", "thinclient-simplify"])
    pipeline.validate(registry)
    result = pipeline.execute(registry, TACCRequest(
        inputs=[html(PDA_PAGE)],
        profile={"filter_pattern": "news"}))
    assert result.mime == MIME_PLAIN
