"""Microbenchmark: HotBot queries/second against one partition-sized
index."""

from repro.hotbot.documents import Corpus
from repro.hotbot.index import InvertedIndex, hits_from_ranked
from repro.sim.rng import RandomStreams


def test_inverted_index_query_throughput(benchmark):
    corpus = Corpus(n_docs=1000, vocabulary_size=2000, seed=1997)
    index = InvertedIndex(total_corpus_size=1000).add_all(corpus)
    rng = RandomStreams(1997).stream("bench-queries")
    queries = [corpus.vocabulary_sample(rng, 2) for _ in range(200)]

    def run_queries():
        for terms in queries:
            hits_from_ranked(index.rank(terms, k=10), corpus.urls)

    benchmark(run_queries)
