"""Every answer HotBot gives, pinned to the bit.

The full-stack benchmark's `golden.json` pins counts and a latency sum,
so a wrong ranking would still read `correct: true`.  Here a seeded
query stream is replayed through a small deployment in each failure
mode and a sha256 over every `QueryResult` — doc ids, urls, scores as
`float.hex()`, coverage, the cache and partial flags, and the simulated
latency — is compared with the digest recorded before the index moved
to typed arrays (PR 18).  A change to ranking, collation, paging or any
simulated delay of the query path shows here as a different digest.
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
    digest = hashlib.sha256()
    for number in range(N_QUERIES):
        result, latency = answers[number]
        digest.update(repr((
            number,
            [(hit.doc_id, hit.url, hit.score.hex())
             for hit in result.hits],
            result.coverage.hex(), result.partitions_answered,
            result.partitions_total, result.served_by_replica,
            result.from_cache, result.partial, latency.hex(),
        )).encode())
    digest.update(repr((hotbot.queries, hotbot.partial_answers,
                        hotbot.cache_served,
                        hotbot.query_cache.incremental_hits)).encode())
    shape = {
        "partial": sum(r.partial for r, _ in answers.values()),
        "cached": sum(r.from_cache for r, _ in answers.values()),
        "replica": sum(r.served_by_replica > 0
                       for r, _ in answers.values()),
    }
    return digest.hexdigest(), shape


#: recorded at the parent of PR 18 (tuple postings, `heapq.nsmallest`,
#: `merge_hits` with a key function)
PINNED = {
    ("cross-mount", 1997):
        "4177986a9f218ab88efce6440dfe0e4df9d7cfeacba6519af3f481fae273725f",
    ("cross-mount", 2026):
        "a5ffae3ae7de5b191d025b355aba02e16a3ee96f694bcae4581bad1bc46d9447",
    ("cross-mount", 7):
        "adf07e6352deef97c04081d2d175c80968e5bf9165b1ac03a3efc4e464dede08",
    ("fast-restart", 1997):
        "0cec51a14858393e8c6beb42d6ab9b51c69edece85ceeeef8456ff7fff1dddc7",
    ("fast-restart", 2026):
        "78b7ba942700150e0a6a0d608367cc8c661a195cacf3dd9038082f24d0749972",
    ("fast-restart", 7):
        "485b24b816661f5db725b10425add477a5d39cb7c9b4494d88e4441d6eb982e3",
    ("no-restart", 1997):
        "94f95e441822060bdf4608107dd11ffd29eb44a2f7f61294466433c799560dfc",
    ("no-restart", 2026):
        "029ca4d40e5f012f25a7db117678c1e464159b731cd654ac701f1bf47a3536c0",
    ("no-restart", 7):
        "43212215893745db82b80e6cda1f7752e60dc7a43645aa06ca0eb2e0fbb5620e",
}


@pytest.mark.parametrize("seed", (1997, 2026, 7))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_answers_equal_the_recorded_digest(mode, seed):
    digest, shape = replay_digest(mode, seed)
    # the stream reaches what each mode is there to reach
    assert shape["cached"] > 40
    if mode == "cross-mount":
        assert shape["replica"] > 150 and shape["partial"] < 10
    else:
        assert shape["partial"] > 20 and shape["replica"] == 0
    assert digest == PINNED[mode, seed]


if __name__ == "__main__":  # prints the table above
    for mode in sorted(MODES):
        for seed in (1997, 2026, 7):
            print(f'    ("{mode}", {seed}):\n'
                  f'        "{replay_digest(mode, seed)[0]}",')
