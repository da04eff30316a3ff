"""The HTML "munger" distiller.

"A Perl HTML 'munger' that marks up inline image references with
distillation preferences, adds extra links next to distilled images so
that users can retrieve the original content, and adds a 'toolbar'
(Figure 4) to each page that allows users to control various aspects of
TranSend's operation.  The user interface for TranSend is thus controlled
by the HTML distiller, under the direction of the user preferences from
the front end."

This is real string surgery over real HTML, not a size model: image tags
gain a ``[original]`` retrieval link and a distillation-parameters query
string, and the toolbar is injected after ``<body>`` (or prepended).
"""

from __future__ import annotations

import re

from repro.distillers.base import (
    Distiller,
    DistillerLatencyModel,
    HTML_SLOPE_S_PER_KB,
)
from repro.tacc.content import MIME_HTML, Content, ZeroPayload
from repro.tacc.worker import TACCRequest, WorkerError

_IMG_TAG = re.compile(r"<img\b[^>]*?\bsrc\s*=\s*[\"']([^\"']+)[\"'][^>]*>",
                      re.IGNORECASE)
_BODY_TAG = re.compile(r"<body\b[^>]*>", re.IGNORECASE)

TOOLBAR_TEMPLATE = (
    '<div class="transend-toolbar">'
    "TranSend: quality={quality} scale={scale} "
    '[<a href="/transend/prefs?user={user}">preferences</a>] '
    '[<a href="/transend/off">original page</a>]'
    "</div>"
)


class HtmlMunger(Distiller):
    """Marks up image references and injects the preferences toolbar."""

    worker_type = "html-munger"
    accepts = (MIME_HTML,)
    produces = MIME_HTML
    latency_model = DistillerLatencyModel(HTML_SLOPE_S_PER_KB,
                                          fixed_s=0.001)

    def simulate(self, request: TACCRequest) -> Content:
        """Size model: munging grows pages slightly (toolbar + links)."""
        content = request.content
        predicted = int(content.size * 1.04) + len(TOOLBAR_TEMPLATE)
        return content.derive(
            ZeroPayload(predicted),
            mime=MIME_HTML,
            worker=self.worker_type,
            simulated=True,
        )

    def transform(self, content: Content, request: TACCRequest) -> Content:
        try:
            html = content.data.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WorkerError(
                f"{content.url} is not decodable HTML") from error
        quality = request.param("quality", 25)
        scale = request.param("scale", 2)
        user = request.user_id or "anonymous"

        def mark_image(match: "re.Match[str]") -> str:
            source = match.group(1)
            separator = "&" if "?" in source else "?"
            distill_src = (f"{source}{separator}transend-quality={quality}"
                           f"&transend-scale={scale}")
            original_link = (f' <a href="{source}?transend=off">'
                             "[original]</a>")
            return (match.group(0).replace(source, distill_src)
                    + original_link)

        munged, image_count = _IMG_TAG.subn(mark_image, html)
        toolbar = TOOLBAR_TEMPLATE.format(quality=quality, scale=scale,
                                          user=user)
        if _BODY_TAG.search(munged):
            munged = _BODY_TAG.sub(
                lambda match: match.group(0) + toolbar, munged, count=1)
        else:
            munged = toolbar + munged
        return content.derive(
            munged.encode("utf-8"),
            mime=MIME_HTML,
            worker=self.worker_type,
            images_marked=image_count,
        )
