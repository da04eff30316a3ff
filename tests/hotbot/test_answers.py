"""Every answer HotBot gives, pinned to the bit.

The full-stack benchmark's `golden.json` pins counts and a latency sum,
so a wrong ranking would still read `correct: true`.  Here a seeded
query stream is replayed through a small deployment in each failure
mode and two sha256 digests are compared with recorded ones:

* the *ranking* digest, over every `QueryResult`'s doc ids, urls,
  scores as `float.hex()`, coverage, partitions answered and total,
  replica legs and the cache and partial flags, and the front end's
  closing counters;
* the *timing* digest, over every query's simulated latency as
  `float.hex()`.

A change to ranking, collation or paging shows in the first; a change
to any simulated delay of the query path in the second.  Both were
recorded while a partition still sorted its own answer, and the one
digest over both halves they replace had stood since before the index
moved to typed arrays.
"""

import hashlib

import pytest

from repro.chaos.campaign import CrashSearchNode, Faults
from repro.hotbot.service import HotBot, HotBotConfig

N_QUERIES = 400
MEAN_GAP_S = 0.01


def query_stream(hotbot):
    """(terms, offset, gap) triples: two- and three-term queries, a
    third of them repeats of an earlier one (some with the terms
    reversed, some asking for page 2 or a page past the cached
    depth)."""
    rng = hotbot.cluster.streams.stream("answers")
    issued = []
    for _ in range(N_QUERIES):
        gap = rng.exponential(MEAN_GAP_S)
        if issued and rng.random() < 0.35:
            terms = list(rng.choice(issued))
            if rng.random() < 0.3:
                terms.reverse()
            offset = rng.choice((0, 0, 10, 10, 95))
        else:
            terms = hotbot.corpus.vocabulary_sample(
                rng, 2 + rng.randint(0, 1))
            issued.append(tuple(terms))
            offset = 0
        yield terms, offset, gap


def crash_now(hotbot, partition, duration_s=None):
    """A callable that arms a crash of ``partition`` at the instant it
    is called."""
    faults = Faults(hotbot)
    return lambda: faults.arm((CrashSearchNode(
        at=faults.env.now, partition=partition, duration_s=duration_s),))


def fast_restart(seed):
    """A partition crashes a third of the way in and restarts: queries
    in flight time out at the gather deadline, later ones are partial,
    the last ones are answered by the rebuilt index."""
    hotbot = HotBot(HotBotConfig(n_workers=6, n_docs=600,
                                 gather_timeout_s=0.5), seed=seed)
    return hotbot, crash_now(hotbot, 2, duration_s=1.0)


def cross_mount(seed):
    """One worker down for good; the peer that cross-mounts its disk
    serves the partition at a penalty (replica legs)."""
    hotbot = HotBot(HotBotConfig(n_workers=6, n_docs=600,
                                 failure_mode="cross-mount"), seed=seed)
    return hotbot, crash_now(hotbot, 4)


def no_restart(seed):
    """A crashed partition that never returns: partial answers, which
    are not cached."""
    hotbot = HotBot(HotBotConfig(n_workers=6, n_docs=600), seed=seed)
    return hotbot, crash_now(hotbot, 1)


MODES = {"fast-restart": fast_restart, "cross-mount": cross_mount,
         "no-restart": no_restart}


def replay_digest(mode, seed):
    hotbot, crash = MODES[mode](seed)
    env = hotbot.cluster.env
    answers = {}

    def ask(number, terms, offset):
        start = env.now
        result = yield hotbot.submit(terms, f"user{number % 7}", offset)
        answers[number] = (result, env.now - start)

    def client():
        for number, (terms, offset, gap) in enumerate(
                query_stream(hotbot)):
            yield env.timeout(gap)
            if number == N_QUERIES // 3:
                crash()
            env.process(ask(number, terms, offset))

    env.process(client())
    hotbot.run(until=N_QUERIES * MEAN_GAP_S + 30.0)
    assert len(answers) == N_QUERIES
    ranking = hashlib.sha256()
    timing = hashlib.sha256()
    for number in range(N_QUERIES):
        result, latency = answers[number]
        ranking.update(repr((
            number,
            [(hit.doc_id, hit.url, hit.score.hex())
             for hit in result.hits],
            result.coverage.hex(), result.partitions_answered,
            result.partitions_total, result.served_by_replica,
            result.from_cache, result.partial,
        )).encode())
        timing.update(repr((number, latency.hex())).encode())
    ranking.update(repr((hotbot.queries, hotbot.partial_answers,
                         hotbot.cache_served,
                         hotbot.query_cache.incremental_hits)).encode())
    shape = {
        "partial": sum(r.partial for r, _ in answers.values()),
        "cached": sum(r.from_cache for r, _ in answers.values()),
        "replica": sum(r.served_by_replica > 0
                       for r, _ in answers.values()),
    }
    return (ranking.hexdigest(), timing.hexdigest()), shape


#: (ranking, timing) digests, recorded while a partition still answered
#: with its own sorted top k; the one digest over both halves they
#: replace was recorded with tuple postings, `heapq.nsmallest` and
#: `merge_hits` with a key function
PINNED = {
    ("cross-mount", 1997): (
        "29e370267ecaf0375d3eb02c6161cae712a3cc5ccb667ae7d550d00d9efd7ad0",
        "bbed5199261ac4f7b2eb5f6901859361df15dff38ec0b30ec9d59a752cf6bd47"),
    ("cross-mount", 2026): (
        "f2e0464fcfa58da402c5e92ee08c3ca94c18567556539ab08bfa83c67f8605ba",
        "e0a99a3b60fec19992da05bf67611408807a6e71baadc7b5e5c34274d3c3069d"),
    ("cross-mount", 7): (
        "5037c4be5664b2d7a7cfff6dd4b9465177b257af6e414b65c82924518dfbd908",
        "b3c3e484bd0995f4a9ec67270b9b1a8a72509b7a7ff48e8e3e5f6ff8622fc6e3"),
    ("fast-restart", 1997): (
        "de7eae207cd9c795e1d685e237875842f76e1edf69b300e584819057552ef280",
        "778e6fb7a9617ec1cf354cf39969ddfd05fdaeeb06fee85dbbee201f05364791"),
    ("fast-restart", 2026): (
        "b0056312636192bc7c47958367c7748fe04e76da1b6495b6f87ecf20dc23c1e5",
        "16df3796b8a2c6c6d2a4c989060cb96087a6c8f9d54b9171cc880cc7e71dae24"),
    ("fast-restart", 7): (
        "3c8776260b324ba58a7bddd970c4998cfb96705831a3ded4594408ec461492bc",
        "8b58a7234123d90f6d2a19c0507dc2f6b51f6d53c72cf564135b03b509d3d71b"),
    ("no-restart", 1997): (
        "bb04a43898b7e3610fbb4edd90ac3bc5eae1be5116d48e5aa9035ca2611dd827",
        "fe4c8868fda8467da04dffe3bea31f1bad3fec7ea897f4166c7c0a7721af2fed"),
    ("no-restart", 2026): (
        "dd76597d239d41630a4da058f6943017d86d613ddca3b2c7ed24374db53650a0",
        "197657d101b12f6004d8091efbfa22fc3705f8a083a3de0e765559be81613b05"),
    ("no-restart", 7): (
        "78d4f01e2bb997a4d005d9b111b5d509b5c21017c07f530833d0966b9648b10a",
        "4cdfade4481b25b530d5eac0c1ad4cfeb9e8c4111f1f0546791920b0dd40b5d8"),
}


@pytest.mark.parametrize("seed", (1997, 2026, 7))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_answers_equal_the_recorded_digest(mode, seed):
    (ranking, timing), shape = replay_digest(mode, seed)
    # the stream reaches what each mode is there to reach
    assert shape["cached"] > 40
    if mode == "cross-mount":
        assert shape["replica"] > 150 and shape["partial"] < 10
    else:
        assert shape["partial"] > 20 and shape["replica"] == 0
    assert ranking == PINNED[mode, seed][0], "ranking digest moved"
    assert timing == PINNED[mode, seed][1], "timing digest moved"


if __name__ == "__main__":  # prints the table above
    for mode in sorted(MODES):
        for seed in (1997, 2026, 7):
            ranking, timing = replay_digest(mode, seed)[0]
            print(f'    ("{mode}", {seed}): (\n'
                  f'        "{ranking}",\n'
                  f'        "{timing}"),')
