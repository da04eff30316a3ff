"""The TranSend metasearch service (Section 5.1).

"An aggregator accepts a search string from a user, queries a number of
popular search engines, and collates the top results from each into a
single result page.  Commercial metasearch engines already exist, but
the TranSend metasearch engine was implemented using 3 pages of Perl
code in roughly 2.5 hours, and inherits scalability, fault tolerance,
and high availability from the SNS layer."

The aggregator consumes one HTML result page per engine (each a
:class:`Content` whose metadata carries the engine name), parses the
result items, de-duplicates by URL, and interleaves by per-engine rank.
:func:`render_engine_results` renders the per-engine input pages — use
it to adapt any backend (e.g. :class:`repro.hotbot.HotBot` hits) into
metasearch input.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from repro.tacc.content import MIME_HTML, Content
from repro.tacc.worker import Aggregator, TACCRequest, WorkerError

_RESULT_RE = re.compile(
    r'<li class="result"><a href="([^"]+)">([^<]*)</a></li>')

RESULT_TEMPLATE = '<li class="result"><a href="{url}">{title}</a></li>'


def render_engine_results(engine: str,
                          results: Sequence[Tuple[str, str]]) -> Content:
    """Render (url, title) pairs as one engine's result page."""
    items = "\n".join(
        RESULT_TEMPLATE.format(url=url, title=title)
        for url, title in results
    )
    page = (f"<html><body><h1>{engine} results</h1>\n<ul>\n{items}\n"
            "</ul></body></html>")
    return Content(
        url=f"meta://{engine}/results",
        mime=MIME_HTML,
        data=page.encode("utf-8"),
        metadata={"engine": engine},
    )


class MetasearchAggregator(Aggregator):
    """Collate top results from several engines into one page."""

    worker_type = "metasearch"
    accepts = (MIME_HTML,)
    produces = MIME_HTML

    def aggregate(self, inputs: List[Content],
                  request: TACCRequest) -> Content:
        max_results = int(request.param("max_results", 10))
        per_engine: List[List[Tuple[str, str, str]]] = []
        for page in inputs:
            engine = page.metadata.get("engine", page.url)
            try:
                html = page.data.decode("utf-8")
            except UnicodeDecodeError as error:
                raise WorkerError(
                    f"engine page {page.url} undecodable") from error
            parsed = [(url, title, engine)
                      for url, title in _RESULT_RE.findall(html)]
            per_engine.append(parsed)

        # interleave by rank, de-duplicating by URL: rank-1 results from
        # every engine first, then rank-2, ...
        seen: Dict[str, bool] = {}
        collated: List[Tuple[str, str, str]] = []
        depth = max((len(results) for results in per_engine), default=0)
        for rank in range(depth):
            for results in per_engine:
                if rank >= len(results):
                    continue
                url, title, engine = results[rank]
                if url in seen:
                    continue
                seen[url] = True
                collated.append((url, title, engine))
        collated = collated[:max_results]

        items = "\n".join(
            f'<li class="result"><a href="{url}">{title}</a> '
            f"<small>({engine})</small></li>"
            for url, title, engine in collated
        )
        query = request.param("query", "")
        page = (f"<html><body><h1>Metasearch: {query}</h1>\n"
                f"<ul>\n{items}\n</ul></body></html>")
        return inputs[0].derive(
            page.encode("utf-8"),
            mime=MIME_HTML,
            worker=self.worker_type,
            engines=len(inputs),
            results=len(collated),
        )
