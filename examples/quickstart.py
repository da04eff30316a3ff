"""Quickstart: the TACC programming model in five minutes.

Builds real content, runs the three TranSend distillers on it (actual
byte transformations — this is Figure 3's 10 KB -> ~1.5 KB, measured),
composes workers into a Unix-style pipeline, and shows the ACID
customization store delivering per-user parameters to workers.

Run:  python examples/quickstart.py
"""

from repro.distillers.gif import GifDistiller
from repro.distillers.html import HtmlMunger
from repro.distillers.images import photo_sized_for
from repro.sim.rng import RandomStreams
from repro.tacc.content import MIME_GIF, MIME_HTML, Content
from repro.tacc.customization import ProfileStore
from repro.tacc.registry import WorkerRegistry
from repro.tacc.worker import TACCRequest

from tacc_services.keyword_filter import KeywordFilter
from tacc_services.pipeline import Pipeline
from tacc_services.thinclient import ThinClientSimplifier


def main() -> None:
    rng = RandomStreams(1997).stream("quickstart")

    # --- 1. a real image, really distilled (Figure 3) -------------------
    image = photo_sized_for(rng, target_gif_bytes=10_240)
    gif = Content("http://pics.example/photo.gif", MIME_GIF,
                  image.encode_gif())
    print(f"original GIF: {gif.size} bytes")

    request = TACCRequest(inputs=[gif], params={"scale": 2,
                                                "quality": 25})
    distilled = GifDistiller().run(request)
    print(f"distilled JPEG: {distilled.size} bytes "
          f"({distilled.reduction_factor():.1f}x smaller) — "
          f"the paper reports 10 KB -> 1.5 KB at these settings")

    # --- 2. the ACID customization database ------------------------------
    profiles = ProfileStore()
    with profiles.begin() as tx:
        tx.set("alice", "quality", 10)   # tiny images for a slow modem
        tx.set("alice", "scale", 4)
        tx.set("bob", "quality", 75)     # bob pays for better pictures
    for user in ("alice", "bob"):
        request = TACCRequest(inputs=[gif], profile=profiles.get(user),
                              user_id=user)
        result = GifDistiller().run(request)
        print(f"{user:>6}: same worker, their settings -> "
              f"{result.size} bytes")

    # --- 3. composition: a pipeline of stateless workers ------------------
    registry = WorkerRegistry()
    registry.register_class(HtmlMunger)
    registry.register_class(KeywordFilter)
    registry.register_class(ThinClientSimplifier)

    page = Content(
        "http://news.example/story.html", MIME_HTML,
        b"<html><body><h1>Cluster News</h1>"
        b'<img src="http://pics.example/photo.gif">'
        b"<p>Clusters of commodity workstations are eating the "
        b"world of network services.</p></body></html>")
    pipeline = Pipeline(["html-munger", "keyword-filter",
                         "thinclient-simplify"])
    pipeline.validate(registry)
    result = pipeline.execute(registry, TACCRequest(
        inputs=[page],
        profile={"filter_pattern": "cluster", "screen_width": 160},
        user_id="alice"))
    print(f"\npipeline {pipeline!r}\n"
          f"produced {result.mime}, {result.size} bytes:\n")
    print(result.data.decode()[:400])


if __name__ == "__main__":
    main()
