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
from bisect import bisect_right
from itertools import chain, repeat
from random import Random
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.domains import at_least, between, check_args, choice, count, \
    positive
from repro.sim.rng import RandomStreams, Stream, derive_seed
from repro.tacc.content import MIME_GIF, MIME_HTML, MIME_JPEG
from repro.workload.distributions import (
    default_mime_mix,
    default_size_models,
)
from repro.workload.trace import Trace, TraceRecord

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
        arrivals = int(rng.gauss(lam, math.sqrt(lam)) + 0.5)
        return arrivals if arrivals > 0 else 0
    draw = rng.generator().random
    threshold = math.exp(-lam)
    arrivals = 0
    product = draw()
    while product > threshold:
        arrivals += 1
        product *= draw()
    return arrivals


class Document(NamedTuple):
    url: str
    mime: str
    size_bytes: int


#: a document URL's suffix by MIME type (any other type: ``.bin``)
EXTENSIONS = {MIME_GIF: ".gif", MIME_JPEG: ".jpg", MIME_HTML: ".html"}


class DocumentUniverse:
    """Shared popular documents plus per-user private working sets.

    Shared documents carry Zipf popularity (rank 0 most popular).
    Private documents model each user's personal browsing tail; they are
    derived deterministically from the (user id, index) pair alone —
    never from the order in which users happen to appear in the trace —
    so a one-second bucket's documents never depend on the buckets
    drawn before it.
    """

    #: the domain of each argument (an empty shared set or private
    #: working set has no rank to draw)
    DOMAINS = {"n_shared_docs": count(1), "n_private_per_user": count(1),
               "shared_fraction": between(0.0, 1.0),
               "zipf_alpha": at_least(0)}

    def __init__(
        self,
        rng: Stream,
        n_shared_docs: int = 20000,
        n_private_per_user: int = 200,
        shared_fraction: float = 0.7,
        zipf_alpha: float = 0.9,
    ) -> None:
        check_args(self.DOMAINS, n_shared_docs=n_shared_docs,
                   n_private_per_user=n_private_per_user,
                   shared_fraction=shared_fraction, zipf_alpha=zipf_alpha)
        self.rng = rng
        self.n_private_per_user = n_private_per_user
        self.shared_fraction = shared_fraction
        self.zipf_alpha = zipf_alpha
        #: what one document's draws read: the MIME lottery, then the
        #: type's URL extension and its lottery over size modes
        self._mimes = default_mime_mix().lottery
        self._sizes = {
            mime: (EXTENSIONS.get(mime, ".bin"), model.lottery)
            for mime, model in default_size_models().items()}
        self.shared_docs: List[Document] = self._draw(
            rng.generator(),
            [f"http://shared.example/doc{index}"
             for index in range(n_shared_docs)])
        # one draw fixes the private-universe seed; each (client, index)
        # document then derives from it positionally, not sequentially
        self._private_seed = rng.randint(0, 2 ** 62)
        self._private_cache: Dict[Tuple[str, int], Document] = {}
        #: reseeded for each private document (reseeding a generator
        #: starts the same sequence a new one would)
        self._private_random = Random()

    def _draw(self, random: Random, stems: Iterable[str],
              seeds: Optional[Iterable[int]] = None) -> List[Document]:
        """One document per URL stem (its URL before the extension): a
        MIME type, then a size from that type's model, drawn from
        ``random`` — reseeded with each of ``seeds`` first when given.

        Draw for draw what ``MimeMix.sample`` then ``SizeModel.sample``
        take from a stream, with no frame of theirs per document.
        """
        uniform, normal, reseed = random.random, random.normalvariate, \
            random.seed
        mimes, mime_bounds, mime_total = \
            self._mimes.items, self._mimes.bounds, self._mimes.total
        sizes = self._sizes
        exp = math.exp
        make = tuple.__new__  # a Document from its fields, in C
        documents = []
        append = documents.append
        for stem, seed in zip(stems, repeat(None) if seeds is None
                              else seeds):
            if seed is not None:
                reseed(seed)
            mime = mimes[bisect_right(mime_bounds, uniform() * mime_total)]
            extension, modes = sizes[mime]
            mu, sigma, min_bytes, max_bytes = modes.items[
                bisect_right(modes.bounds, uniform() * modes.total)]
            size = exp(normal(mu, sigma))
            append(make(Document, (
                stem + extension, mime,
                int(max(min_bytes, min(max_bytes, size))))))
        return documents

    def sample_batch(self, client_ids: Sequence[str],
                     rng: Stream) -> List[Document]:
        """One document per client id, batch-drawn from ``rng``.

        Semantically one shared/private coin plus one Zipf rank per
        document, with the uniforms drawn in batches and the
        inverse-CDF constants hoisted out of the loop — the trace
        generator's per-bucket hot path.  The private documents first
        asked for here are then drawn in one :meth:`_draw`, each from
        its own seed.
        """
        n = len(client_ids)
        coins = rng.random_batch(n)
        uniforms = rng.random_batch(n)
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
        cached = self._private_cache.get
        new: Dict[Tuple[str, int], None] = {}
        exp = math.exp
        documents: list = []
        append = documents.append
        for client_id, coin, u in zip(client_ids, coins, uniforms):
            if coin < shared_fraction:
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
                key = (client_id, index)
                document = cached(key)
                if document is None:
                    # a key in the list: filled in below
                    new[key] = None
                    append(key)
                else:
                    append(document)
        if new:
            private_seed = self._private_seed
            self._private_cache.update(zip(new, self._draw(
                self._private_random,
                [f"http://{client_id}.example/p{index}"
                 for client_id, index in new],
                [derive_seed(private_seed, f"{client_id}:{index}")
                 for client_id, index in new])))
            cache = self._private_cache
            documents = [cache[pick] if type(pick) is tuple else pick
                         for pick in documents]
        return documents


#: the cascade's timescales: half an hour down to two seconds
BURST_PERIODS_S = (1800.0, 300.0, 30.0, 2.0)


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

    def __init__(self, rng: Stream, sigma: float = 0.15) -> None:
        self.rng = rng
        self.periods = list(BURST_PERIODS_S)
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


#: Figure 6(a) shows the Berkeley dialup cycle bottoming out around
#: 07:30 and peaking in the evening; amplitude 0.65 gives the observed
#: ~2.2x peak-to-average ratio once bursts are layered on.
DAILY_TROUGH_HOUR = 7.5
DAILY_AMPLITUDE = 0.65


def daily_cycle_factor(t: float) -> float:
    """Unit-mean 24-hour modulation with its minimum at
    :data:`DAILY_TROUGH_HOUR`."""
    hours = (t / 3600.0) % 24.0
    phase = 2.0 * math.pi * (hours - DAILY_TROUGH_HOUR) / 24.0
    return 1.0 - DAILY_AMPLITUDE * math.cos(phase)


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

    #: the domain of each argument, by method (a NaN or negative rate or
    #: duration used to give an empty trace)
    DOMAINS = {
        "__init__": {"n_users": count(1), "mean_rate_rps": positive(),
                     "with_daily_cycle": choice(True, False),
                     "with_bursts": choice(True, False),
                     "burst_sigma": at_least(0)},
        "generate": {"duration_s": at_least(0)},
    }

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
        check_args(self.DOMAINS["__init__"], n_users=n_users,
                   mean_rate_rps=mean_rate_rps,
                   with_daily_cycle=with_daily_cycle,
                   with_bursts=with_bursts, burst_sigma=burst_sigma)
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
        arrivals = poisson_variate(rng, self.rate_at(t))
        if not arrivals:
            return []
        offsets = rng.random_batch(arrivals)
        client_ranks = rng.zipf_rank_batch(
            self.n_users, self._client_zipf_alpha, arrivals)
        names = self._client_names
        if not names:
            names = self._client_names = [
                f"client{index}" for index in range(self.n_users)]
        clients = [names[rank] for rank in client_ranks]
        documents = self.universe.sample_batch(clients, rng)
        urls, mimes, sizes = zip(*documents)
        # each record made from its fields' tuple in C (no
        # Python-level constructor call per record)
        records = list(map(tuple.__new__, repeat(TraceRecord), zip(
            map(t.__add__, offsets), clients, urls, mimes, sizes,
            repeat("interactive"))))
        # TraceRecord is a tuple with the timestamp first, so a plain
        # sort orders by time (ties, vanishingly rare with float
        # offsets, break deterministically by the remaining fields)
        records.sort()
        return records

    def _buckets(self, duration_s: float) -> Iterator[List[TraceRecord]]:
        """The records of each bucket in [0, duration_s), whole, then
        those of the bucket ``duration_s`` falls inside that come
        before it."""
        check_args(self.DOMAINS["generate"], duration_s=duration_s)
        whole = int(duration_s)
        yield from map(self._bucket_records, range(whole))
        if whole < duration_s:
            yield [record for record in self._bucket_records(whole)
                   if record.timestamp < duration_s]

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
        return chain.from_iterable(self._buckets(duration_s))

    def generate(self, duration_s: float) -> Trace:
        """Trace covering [0, duration_s), in memory (as columns), filled
        a whole bucket at a time."""
        return Trace.of_chunks(self._buckets(duration_s))


#: the Section 4.6 fixed-JPEG workload: how many distinct images it
#: cycles over, each image's size (~10 KB) and how many clients ask
FIXED_JPEG_IMAGES = 50
FIXED_JPEG_SIZE_BYTES = 10240
FIXED_JPEG_CLIENTS = 100
#: the domain of each argument of :func:`iter_fixed_jpeg_trace` (a NaN
#: rate used to give NaN timestamps)
FIXED_JPEG_DOMAINS = {"rate_rps": positive(), "n_requests": count(0)}


def iter_fixed_jpeg_trace(rate_rps: float, n_requests: int,
                          seed: int = 1997) -> Iterator[TraceRecord]:
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
    check_args(FIXED_JPEG_DOMAINS, rate_rps=rate_rps, n_requests=n_requests)
    rng = RandomStreams(seed).stream("fixed-jpeg")
    mean_gap = 1.0 / rate_rps
    urls = [f"http://bench.example/img{index}.jpg"
            for index in range(FIXED_JPEG_IMAGES)]
    clients = [f"client{index}" for index in range(FIXED_JPEG_CLIENTS)]
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
                clients[index % FIXED_JPEG_CLIENTS],
                urls[index % FIXED_JPEG_IMAGES],
                MIME_JPEG,
                FIXED_JPEG_SIZE_BYTES,
            )
            index += 1
