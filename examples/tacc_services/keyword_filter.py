"""The keyword filter aggregator (Section 5.1).

"The keyword filter aggregator is very simple (about 10 lines of Perl).
It allows users to specify a Perl regular expression as customization
preference.  This regular expression is then applied to all HTML before
delivery.  A simple example filter marks all occurrences of the chosen
keywords with large, bold, red typeface."

The pattern comes from the user's profile (key ``filter_pattern``) —
the canonical example of per-user mass customization reaching a worker
automatically.
"""

from __future__ import annotations

import re

from repro.tacc.content import MIME_HTML, Content
from repro.tacc.worker import TACCRequest, Transformer, WorkerError

MARKUP = '<b style="color:red;font-size:larger">{match}</b>'

#: Guard against catastrophic patterns from user profiles.
MAX_PATTERN_LENGTH = 200


class KeywordFilter(Transformer):
    """Mark keyword matches in HTML with bold red typeface."""

    worker_type = "keyword-filter"
    accepts = (MIME_HTML,)
    produces = MIME_HTML

    def transform(self, content: Content, request: TACCRequest) -> Content:
        pattern_text = request.param("filter_pattern")
        if not pattern_text:
            return content  # nothing to do: pass through
        if len(pattern_text) > MAX_PATTERN_LENGTH:
            raise WorkerError("filter pattern too long")
        try:
            pattern = re.compile(pattern_text, re.IGNORECASE)
        except re.error as error:
            raise WorkerError(
                f"bad filter pattern {pattern_text!r}: {error}") from error
        try:
            html = content.data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WorkerError(f"{content.url} is not HTML") from error

        matched = 0

        def mark(match: "re.Match[str]") -> str:
            nonlocal matched
            matched += 1
            return MARKUP.format(match=match.group(0))

        filtered = pattern.sub(mark, html)
        return content.derive(
            filtered.encode("utf-8"),
            mime=MIME_HTML,
            worker=self.worker_type,
            keywords_marked=matched,
        )
