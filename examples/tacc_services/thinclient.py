"""Thin-client (PDA / smart phone) support (Section 5.1).

"We have built TranSend workers that output simplified markup and
scaled-down images ready to be 'spoon fed' to an extremely simple
browser client, given knowledge of the client's screen dimensions and
font metrics.  This greatly simplifies client-side code since no HTML
parsing, layout, or image processing is necessary."

The simplifier reduces arbitrary HTML to a line-oriented micro-markup
(one directive per line) sized to the client's screen, and rewrites
image references to pre-scaled variants.  Screen geometry arrives via
the user profile (``screen_width``/``screen_height``/``font_width``),
the mass-customization path again.
"""

from __future__ import annotations

import re
from typing import List

from repro.tacc.content import MIME_HTML, MIME_PLAIN, Content
from repro.tacc.worker import TACCRequest, Transformer, WorkerError

_TAG = re.compile(r"<[^>]+>")
_IMG = re.compile(r"<img\b[^>]*?\bsrc\s*=\s*[\"']([^\"']+)[\"'][^>]*>",
                  re.IGNORECASE)
_HEADING = re.compile(r"<h[1-6][^>]*>(.*?)</h[1-6]>",
                      re.IGNORECASE | re.DOTALL)
_LINK = re.compile(r"<a\b[^>]*?\bhref\s*=\s*[\"']([^\"']+)[\"'][^>]*>"
                   r"(.*?)</a>", re.IGNORECASE | re.DOTALL)

#: PalmPilot-class defaults (160x160 pixels, ~5 px per character).
DEFAULT_SCREEN = {"screen_width": 160, "screen_height": 160,
                  "font_width": 5}


class ThinClientSimplifier(Transformer):
    """HTML -> line-oriented micro-markup for dumb clients."""

    worker_type = "thinclient-simplify"
    accepts = (MIME_HTML,)
    produces = MIME_PLAIN

    def transform(self, content: Content, request: TACCRequest) -> Content:
        try:
            html = content.data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WorkerError(f"{content.url} is not HTML") from error
        screen_width = int(request.param(
            "screen_width", DEFAULT_SCREEN["screen_width"]))
        font_width = int(request.param(
            "font_width", DEFAULT_SCREEN["font_width"]))
        columns = max(10, screen_width // font_width)

        lines: List[str] = []
        for match in _HEADING.finditer(html):
            text = _TAG.sub("", match.group(1)).strip()
            if text:
                lines.append(f"H {text[:columns]}")
        for match in _IMG.finditer(html):
            # the client never scales: reference a pre-scaled variant
            lines.append(f"I {match.group(1)}?w={screen_width}")
        for match in _LINK.finditer(html):
            text = _TAG.sub("", match.group(2)).strip() or match.group(1)
            lines.append(f"L {match.group(1)} {text[:columns]}")
        body = _TAG.sub(" ", _HEADING.sub(" ", html))
        for word_line in _wrap(" ".join(body.split()), columns):
            lines.append(f"T {word_line}")

        rendered = "\n".join(lines) + "\n"
        return content.derive(
            rendered.encode("utf-8"),
            mime=MIME_PLAIN,
            worker=self.worker_type,
            columns=columns,
        )


def _wrap(text: str, columns: int) -> List[str]:
    """Pre-layout: the whole point is that the client does no layout."""
    words = text.split()
    lines: List[str] = []
    current: List[str] = []
    length = 0
    for word in words:
        if length + len(word) + (1 if current else 0) > columns and current:
            lines.append(" ".join(current))
            current = []
            length = 0
        current.append(word)
        length += len(word) + (1 if length else 0)
    if current:
        lines.append(" ".join(current))
    return lines
