"""Inputs of the `stack` benchmark, generated outside the program.

Every trace is a pure function of ``(seed, scale)``: the same arguments
give the same records, in the same order, in any process.  The program
under measurement receives only the finished records (plain
``TraceRecord`` / ``Query`` tuples) and never sees the seed of its
inputs.

Three of the four generators are the benchmark's own code, drawing from
``random.Random``; `browsing_mix` drives the program's
``TraceGenerator``, because that generator *is* the `workload` layer
the ledger reports on (``workload.tracegen_records_per_s``).

Seed 2026 is the held-out seed: nothing in this benchmark was tuned on
it, and a later gain claim has to hold on it as well as on the seed the
change was written against.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, NamedTuple, Sequence, Tuple

from repro.sim.rng import RandomStreams
from repro.tacc.content import MIME_JPEG
from repro.workload.trace import TraceRecord
from repro.workload.tracegen import DocumentUniverse, TraceGenerator

HELD_OUT_SEED = 2026

#: The document universe (which URLs exist, their types, sizes and
#: popularity ranks) is part of the workload's definition, so it does
#: not change with ``--seed``; the seed draws who asks for what, when.
UNIVERSE_SEED = 1997
N_SHARED_DOCS = 6000
N_USERS = 2000
#: Bursts stay on, at about half the generator's default amplitude: the
#: slow levels of the cascade (5 and 30 minutes) otherwise move the
#: realised load of a 13-minute trace, and with it the queueing at the
#: cache nodes and the median latency, by a tenth from seed to seed.
BURST_SIGMA = 0.08

#: jpeg_steps: fixed-size requests cycling over a few images and clients
#: (the paper's Section 4.6 load).
JPEG_IMAGES = 50
JPEG_CLIENTS = 100
JPEG_BYTES = 10240

#: flat_queries: the query's rank is Zipf(alpha < 1) over this many
#: distinct queries, which flattens popularity enough that the
#: recent-searches cache answers at most a quarter.
QUERY_DISTINCT = 50_000
QUERY_ALPHA = 0.5
QUERY_USERS = 500

#: (offered requests per second, simulated seconds) — one rate step.
Step = Tuple[float, float]


class Query(NamedTuple):
    """One HotBot query as the client sends it."""

    timestamp: float
    terms: Tuple[str, str]
    user_id: str


def derive(seed: int, label: str) -> int:
    """A 63-bit seed for ``label`` under ``seed``; stable across
    processes (``hash()`` is salted, so it cannot be used)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def scaled(steps: Sequence[Step], scale: float) -> List[Step]:
    """Shorter steps at the same rates: ``scale`` changes how many
    requests a run sends, never how hard it pushes."""
    return [(rate, duration * scale) for rate, duration in steps]


def browsing_mix(seed: int, steps: Sequence[Step]) -> List[TraceRecord]:
    """The dialup browsing mix (bursts on, daily cycle off) at the mean
    rate of the single step, over the fixed document universe."""
    (rate, duration), = steps
    universe = DocumentUniverse(
        RandomStreams(UNIVERSE_SEED).stream("universe"),
        n_shared_docs=N_SHARED_DOCS, shared_fraction=0.7)
    generator = TraceGenerator(
        seed=seed, n_users=N_USERS, mean_rate_rps=rate,
        universe=universe, with_daily_cycle=False, with_bursts=True,
        burst_sigma=BURST_SIGMA)
    return generator.generate(duration)


def jpeg_steps(seed: int, steps: Sequence[Step]) -> List[TraceRecord]:
    """Poisson arrivals of fixed-size JPEG requests, the rate stepping
    through ``steps`` (one step = the paper's Section 4.6 workload)."""
    rng = random.Random(derive(seed, "jpeg-arrivals"))
    urls = [f"http://bench.example/img{i}.jpg" for i in range(JPEG_IMAGES)]
    clients = [f"client{i}" for i in range(JPEG_CLIENTS)]
    records: List[TraceRecord] = []
    step_start = 0.0
    for rate, duration in steps:
        step_end = step_start + duration
        t = step_start
        while True:
            t += rng.expovariate(rate)
            if t >= step_end:
                break
            index = len(records)
            records.append(TraceRecord(
                t, clients[index % JPEG_CLIENTS], urls[index % JPEG_IMAGES],
                MIME_JPEG, JPEG_BYTES))
        step_start = step_end
    return records


def flat_queries(seed: int, steps: Sequence[Step],
                 vocabulary_size: int) -> List[Query]:
    """Two-term queries over a vocabulary of ``vocabulary_size`` words
    whose popularity is flattened, so the recent-searches cache answers
    only a small share and the rest scatter to every partition."""
    (rate, duration), = steps
    rng = random.Random(derive(seed, "hotbot-queries"))
    # inverse CDF of the continuous Zipf approximation
    one_minus = 1.0 - QUERY_ALPHA
    span = QUERY_DISTINCT ** one_minus - 1.0
    salt = derive(seed, "hotbot-terms")
    queries: List[Query] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return queries
        rank = int((rng.random() * span + 1.0) ** (1.0 / one_minus)) - 1
        first = (rank * 7919 + salt) % vocabulary_size
        second = (rank * 104729 + salt + 13) % vocabulary_size
        if second == first:
            second = (second + 1) % vocabulary_size
        queries.append(Query(t, (f"w{first}", f"w{second}"),
                             f"user{len(queries) % QUERY_USERS}"))
