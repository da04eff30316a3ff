"""The Bay Area Culture Page aggregator (Section 5.1).

"This service retrieves scheduling information from a number of cultural
pages on the web, and collates the results into a single, comprehensive
calendar of upcoming events, bounded by dates stored as part of each
user's profile ... extremely general, layout-independent heuristics are
used to extract scheduling information from the cultural pages.  About
10-20% of the time, the heuristics spuriously pick up non-date text ...
but the service is still useful and users simply ignore spurious
results."

The date heuristics here are deliberately general (several formats, no
layout assumptions) and therefore imperfect — that imperfection is the
point: it is the paper's showcase of **BASE approximate answers at the
application layer**, and the tests assert usefulness despite noise
rather than exactness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.tacc.content import MIME_HTML, Content
from repro.tacc.worker import Aggregator, TACCRequest, WorkerError

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7,
    "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}

#: "Month DD" — e.g. "October 14" / "Oct 14".
_TEXT_DATE = re.compile(
    r"\b(" + "|".join(sorted(_MONTHS, key=len, reverse=True)) + r")\.?\s+"
    r"(\d{1,2})\b",
    re.IGNORECASE,
)
#: "MM/DD" — the second, noisier heuristic; this is the one that
#: "spuriously picks up non-date text" like fractions or version numbers.
_NUMERIC_DATE = re.compile(r"\b(\d{1,2})/(\d{1,2})\b")

_TAG_RE = re.compile(r"<[^>]+>")


@dataclass(frozen=True)
class ExtractedEvent:
    """One (possibly spurious) calendar entry."""

    month: int
    day: int
    description: str
    source_url: str

    @property
    def date_key(self) -> Tuple[int, int]:
        return (self.month, self.day)


def extract_events(content: Content) -> List[ExtractedEvent]:
    """Layout-independent extraction: any date-looking token plus its
    surrounding text becomes an event candidate."""
    try:
        html = content.data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise WorkerError(f"{content.url} undecodable") from error
    text = _TAG_RE.sub(" ", html)
    events: List[ExtractedEvent] = []

    def snippet(position: int) -> str:
        window = text[max(0, position - 60): position + 60]
        return " ".join(window.split())

    for match in _TEXT_DATE.finditer(text):
        month = _MONTHS[match.group(1).lower()]
        day = int(match.group(2))
        if 1 <= day <= 31:
            events.append(ExtractedEvent(month, day,
                                         snippet(match.start()),
                                         content.url))
    for match in _NUMERIC_DATE.finditer(text):
        month, day = int(match.group(1)), int(match.group(2))
        if 1 <= month <= 12 and 1 <= day <= 31:
            events.append(ExtractedEvent(month, day,
                                         snippet(match.start()),
                                         content.url))
    return events


class CulturePageAggregator(Aggregator):
    """Collate event candidates into one calendar page, bounded by the
    user's profile date window."""

    worker_type = "culture-page"
    accepts = (MIME_HTML,)
    produces = MIME_HTML

    def aggregate(self, inputs: List[Content],
                  request: TACCRequest) -> Content:
        window_start = self._window(request, "calendar_start", (1, 1))
        window_end = self._window(request, "calendar_end", (12, 31))
        events: List[ExtractedEvent] = []
        for page in inputs:
            events.extend(extract_events(page))
        selected = sorted(
            (event for event in events
             if window_start <= event.date_key <= window_end),
            key=lambda event: event.date_key,
        )
        rows = "\n".join(
            f"<li>{event.month:02d}/{event.day:02d} — "
            f"{event.description} "
            f'<small><a href="{event.source_url}">source</a></small></li>'
            for event in selected
        )
        page = ("<html><body><h1>Culture this week</h1>\n"
                f"<ul>\n{rows}\n</ul></body></html>")
        return inputs[0].derive(
            page.encode("utf-8"),
            mime=MIME_HTML,
            worker=self.worker_type,
            events=len(selected),
            pages_scraped=len(inputs),
        )

    @staticmethod
    def _window(request: TACCRequest, key: str,
                default: Tuple[int, int]) -> Tuple[int, int]:
        value = request.param(key)
        if value is None:
            return default
        month, day = value
        return (int(month), int(day))
