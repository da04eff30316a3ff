"""Synthetic HTTP trace generation.

Two generators:

* :class:`TraceGenerator` — the dialup-population model behind
  Figures 5 and 6 and the cache study: a document universe with Zipf
  popularity, per-user private working sets, and an arrival process
  with a 24-hour cycle modulated by a multiplicative multi-timescale
  cascade (bursts remain visible at 2-minute, 30-second, and 1-second
  buckets, as in Figure 6 a-c).
* :func:`iter_fixed_jpeg_trace` — the Section 4.6 scalability workload:
  "a trace file that repeatedly requested a fixed number of JPEG
  images, all approximately 10 KB in size", which keeps the cache hot
  and isolates distiller and front-end capacity.

Generation is **bucket-deterministic**: every one-second bucket of the
non-homogeneous arrival process draws from its own RNG stream, derived
from the seed and the absolute bucket index alone.  Two consequences:

* the per-request hot path is vectorized — each bucket batch-samples
  its arrival count, offsets, clients, and documents instead of paying
  per-request method dispatch (this is what lets a multi-million-request
  trace generate at millions of records per minute);
* a bucket's records never depend on how many buckets came before or
  on which generator instance drew them, so a shorter trace is exactly
  a prefix of a longer one with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams, Stream, derive_seed
from repro.tacc.content import MIME_JPEG
from repro.workload.distributions import (
    MimeMix,
    SizeModel,
    default_mime_mix,
    default_size_models,
)
from repro.workload.trace import TraceRecord

DAY_S = 86400.0

#: Above this arrival rate per bucket, Poisson sampling switches from
#: Knuth's product-of-uniforms method (O(lambda) draws, and degenerate
#: once ``exp(-lambda)`` underflows around lambda ≈ 745) to a rounded
#: normal approximation (one Gaussian draw; relative error < 1% at this
#: threshold and shrinking as lambda grows).
POISSON_NORMAL_THRESHOLD = 64.0


def poisson_variate(rng: Stream, lam: float) -> int:
    """One Poisson draw from ``rng``: Knuth's method for small rates, a
    rounded normal approximation above :data:`POISSON_NORMAL_THRESHOLD`
    (where Knuth degrades and then breaks outright)."""
    if lam <= 0:
        return 0
    if lam > POISSON_NORMAL_THRESHOLD:
        count = int(rng.gauss(lam, math.sqrt(lam)) + 0.5)
        return count if count > 0 else 0
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


@dataclass(frozen=True)
class Document:
    url: str
    mime: str
    size_bytes: int


class DocumentUniverse:
    """Shared popular documents plus per-user private working sets.

    Shared documents carry Zipf popularity (rank 0 most popular).
    Private documents model each user's personal browsing tail; they are
    derived deterministically from the (user id, index) pair alone —
    never from the order in which users happen to appear in the trace —
    so a one-second bucket's documents never depend on the buckets
    drawn before it.
    """

    def __init__(
        self,
        rng: Stream,
        n_shared_docs: int = 20000,
        n_private_per_user: int = 200,
        shared_fraction: float = 0.7,
        mime_mix: Optional[MimeMix] = None,
        size_models: Optional[Dict[str, SizeModel]] = None,
        zipf_alpha: float = 0.9,
    ) -> None:
        if not 0.0 <= shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")
        self.rng = rng
        self.n_private_per_user = n_private_per_user
        self.shared_fraction = shared_fraction
        self.zipf_alpha = zipf_alpha
        mime_mix = mime_mix or default_mime_mix()
        size_models = size_models or default_size_models()
        self._size_models = size_models
        self._mime_mix = mime_mix
        self.shared_docs: List[Document] = []
        for index in range(n_shared_docs):
            mime = mime_mix.sample(rng)
            size = size_models[mime].sample(rng)
            extension = _extension_for(mime)
            self.shared_docs.append(Document(
                url=f"http://shared.example/doc{index}{extension}",
                mime=mime,
                size_bytes=size,
            ))
        # one draw fixes the private-universe seed; each (client, index)
        # document then derives from it positionally, not sequentially
        self._private_seed = rng.randint(0, 2 ** 62)
        self._private_cache: Dict[Tuple[str, int], Document] = {}

    def _private_doc(self, client_id: str, index: int) -> Document:
        key = (client_id, index)
        document = self._private_cache.get(key)
        if document is None:
            rng = Stream(derive_seed(self._private_seed,
                                     f"{client_id}:{index}"))
            mime = self._mime_mix.sample(rng)
            size = self._size_models[mime].sample(rng)
            extension = _extension_for(mime)
            document = Document(
                url=f"http://{client_id}.example/p{index}{extension}",
                mime=mime,
                size_bytes=size,
            )
            self._private_cache[key] = document
        return document

    def sample_batch(self, client_ids: Sequence[str],
                     rng: Stream) -> List[Document]:
        """One document per client id, batch-drawn from ``rng``.

        Semantically one shared/private coin plus one Zipf rank per
        document, with the uniforms drawn in batches and the
        inverse-CDF constants hoisted out of the loop — the trace
        generator's per-bucket hot path.
        """
        count = len(client_ids)
        choices = rng.random_batch(count)
        uniforms = rng.random_batch(count)
        shared_fraction = self.shared_fraction
        shared_docs = self.shared_docs
        n_shared = len(shared_docs)
        alpha = self.zipf_alpha
        # shared-rank inversion constants (see Stream.zipf_rank)
        if alpha == 1.0:
            shared_h = math.log(n_shared) + 0.5772156649
            shared_c = shared_inv = one_minus = 0.0
        else:
            one_minus = 1.0 - alpha
            shared_c = (n_shared ** one_minus - 1.0) / one_minus
            shared_inv = 1.0 / one_minus
            shared_h = 0.0
        private_h = math.log(self.n_private_per_user) + 0.5772156649
        private_top = self.n_private_per_user - 1
        shared_top = n_shared - 1
        private_doc = self._private_doc
        exp = math.exp
        documents = []
        append = documents.append
        for client_id, choice, u in zip(client_ids, choices, uniforms):
            if choice < shared_fraction:
                if alpha == 1.0:
                    rank = int(exp(u * shared_h)) - 1
                else:
                    rank = int((u * shared_c * one_minus + 1.0)
                               ** shared_inv) - 1
                if rank < 0:
                    rank = 0
                elif rank > shared_top:
                    rank = shared_top
                append(shared_docs[rank])
            else:
                index = int(exp(u * private_h)) - 1
                if index < 0:
                    index = 0
                elif index > private_top:
                    index = private_top
                append(private_doc(client_id, index))
        return documents


def _extension_for(mime: str) -> str:
    return {
        "image/gif": ".gif",
        "image/jpeg": ".jpg",
        "text/html": ".html",
    }.get(mime, ".bin")


class BurstCascade:
    """Multiplicative cascade: piecewise-constant log-normal modulators
    at several timescales, multiplied together.

    Each level's multiplier has unit mean; resampling epochs at the
    level's period keeps correlated fluctuations alive at that scale.
    The product exhibits bursts at *all* chosen scales — a simple and
    controllable stand-in for the self-similar traffic of [18, 27, 35].

    Each (level, epoch) multiplier is a pure function of the cascade's
    seed — derived by hash, not drawn sequentially — so ``factor(t)``
    may be evaluated at arbitrary times in arbitrary order and always
    answers the same, which keeps each bucket's arrival rate a function
    of its time alone.
    """

    def __init__(self, rng: Stream,
                 periods_s: Sequence[float] = (1800.0, 300.0, 30.0, 2.0),
                 sigma: float = 0.15) -> None:
        self.rng = rng
        self.periods = list(periods_s)
        self.sigma = sigma
        # one draw fixes the cascade; every multiplier derives from it
        self._seed = rng.randint(0, 2 ** 62)
        self._epochs = [-1] * len(self.periods)
        self._factors = [1.0] * len(self.periods)

    def _multiplier(self, level: int, epoch: int) -> float:
        rng = Stream(derive_seed(self._seed, f"{level}:{epoch}"))
        # unit-mean log-normal: mu = -sigma^2/2
        return rng.lognormal(-self.sigma * self.sigma / 2.0, self.sigma)

    def factor(self, t: float) -> float:
        product = 1.0
        epochs = self._epochs
        factors = self._factors
        for level, period in enumerate(self.periods):
            epoch = int(t / period)
            if epoch != epochs[level]:
                epochs[level] = epoch
                factors[level] = self._multiplier(level, epoch)
            product *= factors[level]
        return product


def daily_cycle_factor(t: float, trough_hour: float = 7.5,
                       amplitude: float = 0.65) -> float:
    """Unit-mean 24-hour modulation with its minimum at ``trough_hour``.

    Figure 6(a) shows the Berkeley dialup cycle bottoming out around
    07:30 and peaking in the evening; amplitude 0.65 gives the observed
    ~2.2x peak-to-average ratio once bursts are layered on.
    """
    hours = (t / 3600.0) % 24.0
    phase = 2.0 * math.pi * (hours - trough_hour) / 24.0
    return 1.0 - amplitude * math.cos(phase)


class TraceGenerator:
    """Generates a timestamped, sorted synthetic request trace.

    The arrival process is sampled one absolute one-second bucket at a
    time; bucket ``k`` (covering ``[k, k+1)``) draws everything —
    arrival count, timestamp offsets, clients, documents — from a
    stream derived from ``(seed, k)``.  Window requests that cover only
    part of a bucket regenerate the whole bucket and emit the records
    that fall inside the window, so any split of ``[0, T)`` into
    subwindows concatenates to exactly the single-call trace.
    """

    def __init__(
        self,
        seed: int = 1997,
        n_users: int = 8000,
        mean_rate_rps: float = 5.8,
        universe: Optional[DocumentUniverse] = None,
        with_daily_cycle: bool = True,
        with_bursts: bool = True,
        burst_sigma: float = 0.15,
    ) -> None:
        streams = RandomStreams(seed)
        self.seed = seed
        self.rng = streams.stream("tracegen")
        self.n_users = n_users
        self.mean_rate_rps = mean_rate_rps
        self.universe = universe if universe is not None else \
            DocumentUniverse(streams.stream("universe"))
        self.with_daily_cycle = with_daily_cycle
        self.cascade = BurstCascade(
            streams.stream("bursts"), sigma=burst_sigma) \
            if with_bursts else None
        self._bucket_seed = derive_seed(seed, "tracegen:bucket")
        self._client_names: List[str] = []
        self._client_zipf_alpha = 0.8

    def rate_at(self, t: float) -> float:
        rate = self.mean_rate_rps
        if self.with_daily_cycle:
            rate *= daily_cycle_factor(t)
        if self.cascade is not None:
            rate *= self.cascade.factor(t)
        return rate

    def _bucket_records(self, bucket: int) -> List[TraceRecord]:
        """All records of absolute bucket ``[bucket, bucket + 1)``,
        sorted by timestamp — a pure function of (seed, bucket)."""
        rng = Stream(derive_seed(self._bucket_seed, str(bucket)))
        t = float(bucket)
        count = poisson_variate(rng, self.rate_at(t))
        if not count:
            return []
        offsets = rng.random_batch(count)
        client_ranks = rng.zipf_rank_batch(
            self.n_users, self._client_zipf_alpha, count)
        names = self._client_names
        if not names:
            names = self._client_names = [
                f"client{index}" for index in range(self.n_users)]
        clients = [names[rank] for rank in client_ranks]
        documents = self.universe.sample_batch(clients, rng)
        make = TraceRecord
        records = [
            make(t + offset, client_id, document.url, document.mime,
                 document.size_bytes)
            for offset, client_id, document in zip(
                offsets, clients, documents)
        ]
        # TraceRecord is a tuple with the timestamp first, so a plain
        # sort orders by time (ties, vanishingly rare with float
        # offsets, break deterministically by the remaining fields)
        records.sort()
        return records

    def iter_generate(self, duration_s: float) -> Iterator[TraceRecord]:
        """Stream the trace for [0, duration_s).

        Records are produced one one-second bucket at a time — the
        non-homogeneous process's natural chunk.  Each bucket draws
        from its own derived stream, so the trace for ``[0, a)`` is
        record-for-record a prefix of the trace for ``[0, b)`` when
        ``a < b``, even across freshly constructed generators with the
        same seed.  Only one bucket is ever materialized, which is what
        lets a multi-hour, multi-million-request workload feed the
        playback engine with bounded memory.
        """
        bucket = 0
        bucket_records = self._bucket_records
        while bucket < duration_s:
            records = bucket_records(bucket)
            if duration_s >= bucket + 1:
                yield from records
            else:
                for record in records:
                    if record.timestamp < duration_s:
                        yield record
            bucket += 1

    def generate(self, duration_s: float) -> List[TraceRecord]:
        """Trace covering [0, duration_s), in memory."""
        return list(self.iter_generate(duration_s))


def iter_fixed_jpeg_trace(
    rate_rps: float,
    n_requests: int,
    n_images: int = 50,
    image_size_bytes: int = 10240,
    seed: int = 1997,
    n_clients: int = 100,
) -> Iterator[TraceRecord]:
    """Stream exactly ``n_requests`` of the Section 4.6 fixed-JPEG
    workload (Poisson arrivals at ``rate_rps``), one record at a time.

    Constant-rate requests cycling over a fixed set of ~10 KB JPEGs
    (all cache-resident, so the cache miss penalty never clouds the
    scaling measurement); a 20-million-request replay in the paper's
    style needs no more memory than a single :class:`TraceRecord`.
    Deterministic in ``seed``, and draw-for-draw identical to the
    pre-vectorized implementation: the URL/client strings are
    precomputed and the inter-arrival gaps are batch-sampled, but the
    underlying RNG sequence is unchanged.
    """
    if rate_rps <= 0:
        raise ValueError("rate must be positive")
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    rng = RandomStreams(seed).stream("fixed-jpeg")
    mean_gap = 1.0 / rate_rps
    urls = [f"http://bench.example/img{index}.jpg"
            for index in range(n_images)]
    clients = [f"client{index}" for index in range(n_clients)]
    make = TraceRecord
    batch = rng.exponential_batch
    chunk_size = 8192
    t = 0.0
    index = 0
    while index < n_requests:
        gaps = batch(mean_gap, min(chunk_size, n_requests - index))
        for gap in gaps:
            t += gap
            yield make(
                t,
                clients[index % n_clients],
                urls[index % n_images],
                MIME_JPEG,
                image_size_bytes,
            )
            index += 1
