"""Wall-clock cost of the *actual* JPEG codec path (Figure 3's
transformation), as a conventional microbenchmark."""

from repro.distillers.images import photo_sized_for
from repro.distillers.jpeg import JpegDistiller
from repro.sim.rng import RandomStreams
from repro.tacc.content import MIME_JPEG, Content
from repro.tacc.worker import TACCRequest


def test_real_jpeg_distillation_throughput(benchmark):
    rng = RandomStreams(1997).stream("bench-images")
    image = photo_sized_for(rng, target_gif_bytes=10_240)
    content = Content("http://bench/p.jpg", MIME_JPEG,
                      image.encode_jpeg(quality=90))
    distiller = JpegDistiller()
    request = TACCRequest(inputs=[content],
                          params={"scale": 2, "quality": 25})

    result = benchmark(distiller.run, request)
    benchmark.extra_info["reduction_factor"] = round(
        result.reduction_factor(), 2)
    assert result.reduction_factor() > 2.0
