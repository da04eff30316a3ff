"""Named, seeded random-number streams.

Every stochastic choice in the reproduction — content sizes, inter-arrival
times, cache-miss penalties, lottery-scheduling draws, fault timing — comes
from a named stream derived from one master seed.  Two runs with the same
seed are bit-identical, and adding draws to one subsystem does not perturb
another (the paper's experiments are compared across configurations, so
cross-experiment determinism matters).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Dict, Generic, List, Sequence, TypeVar

from repro.domains import OutOfDomain, at_least, check_args

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Deterministic child seed for ``name`` under ``master_seed``.

    The same derivation backs every named stream in the repo — and the
    per-shard seeds of :mod:`repro.fanout` — so a shard named
    ``"chaos:smoke:run3"`` draws an independent, reproducible seed no
    matter which worker process (or how many) executes it.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: backward-compatible alias (the original private spelling).
_derive_seed = derive_seed


class Stream:
    """One independent random stream with distribution helpers."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

    # Thin pass-throughs ---------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    # Distributions used by the workload and latency models ----------------

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (not rate)."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._random.expovariate(1.0 / mean)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal variate with underlying normal (mu, sigma)."""
        return self._random.lognormvariate(mu, sigma)

    def lognormal_mean(self, mean: float, sigma: float) -> float:
        """Log-normal variate with a target arithmetic *mean*.

        Content sizes in the paper are reported as means (HTML 5131 B,
        GIF 3428 B, JPEG 12070 B); this helper converts a desired mean and
        shape into the underlying mu.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        mu = math.log(mean) - sigma * sigma / 2.0
        return self._random.lognormvariate(mu, sigma)

    # Batched draws for vectorized workload generation -------------------

    def random_batch(self, n: int) -> List[float]:
        """``n`` uniform [0, 1) draws — same stream positions as ``n``
        calls to :meth:`random`, without per-draw method dispatch."""
        draw = self._random.random
        return [draw() for _ in range(n)]

    def exponential_batch(self, mean: float, n: int) -> List[float]:
        """``n`` exponential variates with the given mean.

        Draw-for-draw identical to ``n`` calls to :meth:`exponential`
        (same underlying ``expovariate`` sequence), so switching a
        caller to the batch form never perturbs a seeded trace.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        draw = self._random.expovariate
        rate = 1.0 / mean
        return [draw(rate) for _ in range(n)]

    def zipf_rank_batch(self, n: int, alpha: float,
                        count: int) -> List[int]:
        """``count`` draws of :meth:`zipf_rank` with the inverse-CDF
        constants hoisted out of the loop.

        Draw-for-draw identical to ``count`` sequential calls to
        :meth:`zipf_rank` (one uniform per rank, same inversion).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        draw = self._random.random
        top = n - 1
        if alpha == 1.0:
            h_n = math.log(n) + 0.5772156649
            exp = math.exp
            ranks = [int(exp(draw() * h_n)) - 1 for _ in range(count)]
        else:
            one_minus = 1.0 - alpha
            c = (n ** one_minus - 1.0) / one_minus
            inv = 1.0 / one_minus
            ranks = [int((draw() * c * one_minus + 1.0) ** inv) - 1
                     for _ in range(count)]
        return [0 if rank < 0 else (top if rank > top else rank)
                for rank in ranks]

    def generator(self) -> random.Random:
        """The underlying ``random.Random``.  A batch loop that calls its
        methods directly (no frame of this class per draw) draws exactly
        what the same calls through this stream would, and advances it
        alike."""
        return self._random

    def pareto(self, alpha: float, minimum: float) -> float:
        """Bounded-below Pareto variate (heavy tail for miss penalties)."""
        if alpha <= 0 or minimum <= 0:
            raise ValueError("alpha and minimum must be positive")
        return minimum * (self._random.paretovariate(alpha))

    # Bound draws for a model that validated its parameters once ----------

    def expovariate_draw(self) -> Callable[[float], float]:
        """This stream's ``expovariate(rate)``, bound: one call per draw.

        ``draw(1.0 / mean)`` is draw-for-draw :meth:`exponential`
        ``(mean)``, without its check — the caller checks ``mean`` once,
        where it fixes the rate.
        """
        return self._random.expovariate

    def paretovariate_draw(self) -> Callable[[float], float]:
        """This stream's ``paretovariate(alpha)``, bound: one call per
        draw.  ``minimum * draw(alpha)`` is draw-for-draw :meth:`pareto`
        ``(alpha, minimum)``, without its check (see above)."""
        return self._random.paretovariate

    def zipf_rank(self, n: int, alpha: float = 1.0) -> int:
        """Draw a 0-based rank from a Zipf(alpha) distribution over n items.

        Uses inverse-CDF over precomputed weights is O(n) to build, so we
        use rejection-free approximate inversion adequate for workload
        generation (document popularity for the cache study).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        # Approximate inversion: harmonic CDF sampled by bisection on the
        # continuous relaxation, then clamped.
        u = self._random.random()
        if alpha == 1.0:
            h_n = math.log(n) + 0.5772156649
            x = math.exp(u * h_n)
        else:
            c = (n ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
            x = (u * c * (1.0 - alpha) + 1.0) ** (1.0 / (1.0 - alpha))
        # x is a continuous rank on [1, ~n]; shift to 0-based
        rank = int(x) - 1
        return max(0, min(n - 1, rank))

    def weighted_choice(self, items: Sequence[T],
                        weights: Sequence[float]) -> T:
        """Lottery draw: pick one item with probability ∝ weight.

        This is exactly the paper's lottery-scheduling primitive
        (Waldspurger & Weihl [63]) used by the manager stub to pick a
        distiller for each request, whose weights change with every
        load report; weights fixed for many draws make a
        :class:`Lottery` once instead.
        """
        if len(items) != len(weights):
            raise ValueError("items and weights length mismatch")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("total weight must be positive")
        ticket = self._random.random() * total
        cumulative = 0.0
        for item, weight in zip(items, weights):
            cumulative += weight
            if ticket < cumulative:
                return item
        return items[-1]


class Lottery(Generic[T]):
    """A lottery over weights fixed when it is made: the running sums
    and the total are computed once, then each draw is one uniform and
    one ``bisect_right``.

    :meth:`draw` returns, draw for draw, what
    ``rng.weighted_choice(items, weights)`` returns.  The running sums
    are the same float additions its scan makes, and the first item
    whose sum exceeds the ticket is the one the scan stops at.  Only
    the sums below the last item are kept, so a ticket at or past them
    falls to the last item: past the last sum too, as in the scan's
    fallback (the total, ``float(sum(weights))``, may round above it).
    A weight below 0 would break the ascending sums the bisection
    relies on, so it is refused; a weight of 0 never wins.
    """

    #: each weight's domain; their total must also be positive
    DOMAINS = {"weights": at_least(0)}

    __slots__ = ("items", "bounds", "total")

    def __init__(self, items: Sequence[T],
                 weights: Sequence[float]) -> None:
        if len(items) != len(weights):
            raise ValueError("items and weights length mismatch")
        self.total = self.checked_total(weights)
        self.items = tuple(items)
        self.bounds = list(accumulate(weights, initial=0.0))[1:-1]

    @classmethod
    def checked_total(cls, weights: Sequence[float]) -> float:
        """``float(sum(weights))``, refusing a weight outside
        :attr:`DOMAINS` and a total that is not positive."""
        for weight in weights:
            check_args(cls.DOMAINS, weights=weight)
        total = float(sum(weights))
        if not total > 0:
            raise OutOfDomain("weights", list(weights),
                              "must have a positive total")
        return total

    def draw(self, rng: Stream) -> T:
        return self.items[bisect_right(self.bounds,
                                       rng.random() * self.total)]

    def draws(self, rng: Stream, n: int) -> List[T]:
        """``n`` draws: the same as ``n`` calls to :meth:`draw`."""
        items, bounds, total = self.items, self.bounds, self.total
        return [items[bisect_right(bounds, u * total)]
                for u in rng.random_batch(n)]


class RandomStreams:
    """Factory of named :class:`Stream` objects from one master seed."""

    def __init__(self, master_seed: int = 1997) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it deterministically."""
        if name not in self._streams:
            self._streams[name] = Stream(_derive_seed(self.master_seed, name))
        return self._streams[name]

    def __getitem__(self, name: str) -> Stream:
        return self.stream(name)
