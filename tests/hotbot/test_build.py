"""The HotBot deployment build against its one-at-a-time references.

`Corpus` draws a document's ranks in one batch into one set of columns,
`PartitionMap` groups doc ids once, `InvertedIndex.add_rows` collects
postings in one loop and packs them into one flat column pair.
None of that may change what gets built: not a document, not a
posting, not a position of the random stream.  The per-draw generator
lives on here and the per-document, tuple-postings index in
`tests/hotbot/reference.py`, as the references; an index is compared
with its reference through the public surface (`contents()`: counts,
postings per term, and every match of every term with url and score).
"""

import gc
import hashlib
import tracemalloc

import pytest

from repro.chaos.campaign import CrashSearchNode, Faults
from repro.hotbot.documents import Corpus, Document
from repro.hotbot.index import InvertedIndex, Vocabulary
from repro.hotbot.partition import PartitionMap
from repro.hotbot.service import HotBot, HotBotConfig
from repro.sim.rng import RandomStreams
from tests.hotbot.reference import ReferenceIndex, contents

SEEDS = (1997, 2026, 7)


# -- corpus ----------------------------------------------------------------------

def reference_document(rng, doc_id, vocabulary_size=2000, mean_length=80,
                       zipf_alpha=1.05):
    """One document, one `zipf_rank` call and one f-string per term
    occurrence: the generator `Corpus` had before it drew in batches."""
    length = max(5, int(rng.lognormal_mean(mean_length, 0.6)))
    counts = {}
    for _ in range(length):
        term = f"w{rng.zipf_rank(vocabulary_size, zipf_alpha)}"
        counts[term] = counts.get(term, 0) + 1
    return Document(doc_id=doc_id,
                    url=f"http://crawl.example/page{doc_id}",
                    terms=tuple(sorted(counts.items())))


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_corpus_equals_per_draw_reference(seed):
    rng = RandomStreams(seed).stream("corpus")
    expected = [reference_document(rng, doc_id) for doc_id in range(400)]
    assert list(Corpus(n_docs=400, seed=seed)) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_corpus_leaves_the_stream_where_the_reference_does(seed):
    """Each document starts where the reference's does, at another
    vocabulary and length too: a corpus one document longer holds the
    same first fifty and then the reference's fifty-first."""
    reference_rng = RandomStreams(seed).stream("corpus")
    expected = [reference_document(reference_rng, doc_id, 300, 40)
                for doc_id in range(51)]
    for n_docs in (50, 51):
        assert list(Corpus(n_docs=n_docs, vocabulary_size=300, seed=seed,
                           mean_length=40)) == expected[:n_docs]


def test_the_columns_are_one_sparse_row_per_document():
    corpus = Corpus(n_docs=300, vocabulary_size=700, seed=5)
    offsets = list(corpus.offsets)
    assert offsets[0] == 0 and offsets == sorted(offsets)
    assert len(offsets) == len(corpus) + 1
    assert offsets[-1] == len(corpus.ranks) == len(corpus.frequencies)
    for doc_id, document in enumerate(corpus):
        start, end = offsets[doc_id], offsets[doc_id + 1]
        assert document.term_names == tuple(
            corpus.term_names[rank] for rank in corpus.ranks[start:end])
        assert document.frequencies == corpus.frequencies[start:end]
        assert document.url == corpus.urls[doc_id]
    assert [row[:2] for row in corpus.rows([4, 0])] \
        == [(4, corpus.urls[4]), (0, corpus.urls[0])]
    for doc_id in (-1, len(corpus)):
        with pytest.raises(IndexError):
            corpus.document(doc_id)
    with pytest.raises(ValueError, match="65536"):
        Corpus(n_docs=1, vocabulary_size=65537)


@pytest.mark.parametrize("alpha", [1.05, 1.0, 0.5])
def test_vocabulary_sample_equals_per_draw_reference(alpha):
    corpus = Corpus(n_docs=1, vocabulary_size=700, seed=3)
    batch_rng = RandomStreams(11).stream("queries")
    reference_rng = RandomStreams(11).stream("queries")
    assert corpus.vocabulary_sample(batch_rng, 200, alpha) \
        == [f"w{reference_rng.zipf_rank(700, alpha)}" for _ in range(200)]
    assert batch_rng.random() == reference_rng.random()


def test_document_terms_round_trip_through_the_columns():
    terms = (("w1", 3), ("w10", 1), ("w2", 65535))
    document = Document(7, "http://d/7", terms)
    assert document.terms == terms
    assert document.term_names == ("w1", "w10", "w2")
    assert list(document.frequencies) == [3, 1, 65535]
    assert Document(7, "http://d/7", iter(terms)).terms == terms
    assert Document(8, "http://d/8", ()).terms == ()
    built = Corpus(n_docs=3, seed=7).document(2)
    assert built.terms == tuple(sorted(built.terms))
    assert Document(built.doc_id, built.url, built.terms) == built


def test_document_equality_hash_and_tf_hold():
    terms = (("w1", 3), ("w2", 1))
    document = Document(7, "http://d/7", terms)
    same = Document(doc_id=7, url="http://d/7", terms=terms)
    assert document == same and hash(document) == hash(same)
    assert len({document, same}) == 1
    assert document != Document(8, "http://d/7", terms)
    assert document != Document(7, "http://d/8", terms)
    assert document != Document(7, "http://d/7", (("w1", 3), ("w2", 2)))
    assert document != Document(7, "http://d/7", (("w1", 3), ("w3", 1)))
    assert document != terms
    assert (document.tf("w1"), document.tf("w2"), document.tf("w9")) \
        == (3, 1, 0)


#: bytes a built corpus may hold per document, vocabulary and urls
#: included.  One sparse row over the corpus takes about 347; a
#: `Document` per document with its two columns took 878, and a tuple
#: of `(term, frequency)` tuples per document 3719.
CORPUS_BYTES_PER_DOCUMENT = 380


def test_corpus_footprint_stays_in_budget():
    """The corpus is alive for a deployment's whole life (an index
    rebuild reads its columns), so its size is defended the way the
    call budget defends calls: a count, not a clock."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        corpus = Corpus(n_docs=4000, seed=1997)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_document = (after - before) / len(corpus)
    assert per_document <= CORPUS_BYTES_PER_DOCUMENT, per_document


#: bytes a 16-partition deployment's indexes may hold per posting, the
#: partition map's own tables — the shared vocabulary among them, once —
#: included.  A 16-bit doc id and a one-byte frequency per posting take
#: about 6.4; 32-bit doc ids with an 8-byte weight took 15.3, and a
#: pair of arrays per (partition, term) 55.
INDEX_BYTES_PER_POSTING = 8
#: the traced peak while the map and its 16 indexes are built, per
#: posting: what is held after plus the last build's working lists.
#: About 10.5; 19.4 while each build packed a weight array.
INDEX_BUILD_PEAK_BYTES_PER_POSTING = 12


def test_index_footprint_stays_in_budget():
    """Each node holds its partition's index for the deployment's whole
    life, so the bytes per posting decide how much corpus a node can
    carry: defended as a count, like the corpus, and so is the peak a
    build (at boot, and at every fast restart) reaches."""
    corpus = Corpus(n_docs=4000, seed=1997)
    postings = len(corpus.ranks)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        partition_map = PartitionMap(corpus, [1.0] * 16,
                                     RandomStreams(1997).stream("partition"))
        indexes = [partition_map.build_index(partition)
                   for partition in range(16)]
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(index.search(list(partition_map.global_df))[0]
               for index in indexes) == postings
    # the data picks the narrow typecodes: 4000 doc ids fit 16 bits,
    # and no document names a term 256 times
    assert {(index._doc_ids.typecode, index._frequencies.typecode)
            for index in indexes} == {("H", "B")}
    per_posting = (after - before) / postings
    assert per_posting <= INDEX_BYTES_PER_POSTING, per_posting
    peak_per_posting = (peak - before) / postings
    assert peak_per_posting <= INDEX_BUILD_PEAK_BYTES_PER_POSTING, \
        peak_per_posting


# -- index -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return Corpus(n_docs=240, vocabulary_size=400, seed=2026)


@pytest.fixture(scope="module")
def partition_map(corpus):
    return PartitionMap(corpus, [1.0, 2.0, 1.0, 0.5],
                        RandomStreams(5).stream("partition"))


VOCABULARY = [f"w{rank}" for rank in range(400)]


def held(index):
    return contents(index, VOCABULARY)


def reference_held(documents, corpus_size, global_df=None):
    """What an index over ``documents`` must hold, as the per-document
    reference builds it."""
    return held(ReferenceIndex(corpus_size, global_df).add_all(documents))


def test_add_all_equals_repeated_add(corpus):
    """One bulk build holds what the reference's add per document
    does."""
    bulk = InvertedIndex(total_corpus_size=len(corpus)).add_all(corpus)
    assert held(bulk) == reference_held(corpus, len(corpus))
    assert bulk.n_terms > 100


def test_add_all_takes_any_iterable_and_returns_the_index(corpus):
    index = InvertedIndex(total_corpus_size=len(corpus))
    assert index.add_all(iter(list(corpus)[:10])) is index
    assert index.n_documents == 10


def test_duplicate_document_still_raises(corpus):
    first, second = corpus.document(0), corpus.document(1)
    index = InvertedIndex(total_corpus_size=len(corpus))
    with pytest.raises(ValueError, match="duplicate document 0"):
        index.add_all([first, second, first])
    # nothing is indexed before the whole batch is known to be sound,
    # so the same index can still be built, once
    assert (index.n_documents, index.search(["w1"])) == (0, (0, {}))
    index.add_all([first, second])
    assert held(index) == reference_held([first, second], len(corpus))
    with pytest.raises(ValueError, match="built once"):
        index.add_all([corpus.document(2)])


def test_remove_and_add_after_a_bulk_build_stay_consistent(
        corpus, partition_map):
    """Without an update path, dropping a document and taking it back
    are rebuilds; each equals the reference after `remove` / `add`."""
    # corpus-wide statistics, so removing a document moves no idf
    global_df = partition_map.global_df
    index = InvertedIndex(len(corpus), global_df).add_all(corpus)
    query = ["w3", "w17", "w40"]
    before = index.rank(query, k=len(corpus))
    victim = corpus.document(before[0][1])
    reference = ReferenceIndex(len(corpus), global_df).add_all(corpus)

    assert reference.remove(victim.doc_id)
    others = [document for document in corpus if document != victim]
    index = InvertedIndex(len(corpus), global_df).add_all(others)
    assert held(index) == held(reference)
    assert index.rank(query, k=len(corpus)) == before[1:]

    reference.add(victim)
    index = InvertedIndex(len(corpus), global_df).add_all(others + [victim])
    assert held(index) == held(reference)
    assert index.rank(query, k=len(corpus)) == before
    assert index.search(query)[0] == sum(
        1 for document in corpus for term in query if document.tf(term))


# -- partitions ------------------------------------------------------------------

def test_documents_in_keeps_corpus_order_and_returns_a_copy(
        corpus, partition_map):
    """A partition holds the documents the per-document lottery gave
    it, drawn in corpus order from the map's stream."""
    rng = RandomStreams(5).stream("partition")
    drawn = [rng.weighted_choice(range(4), [1.0, 2.0, 1.0, 0.5])
             for _ in range(len(corpus))]
    for partition in range(partition_map.n_partitions):
        members = partition_map.documents_in(partition)
        assert members == [
            document for document in corpus
            if drawn[document.doc_id] == partition]
        members.clear()  # the caller's list, not the map's
        assert partition_map.documents_in(partition) != []
    assert partition_map.partition_sizes() == [
        len(partition_map.documents_in(partition))
        for partition in range(partition_map.n_partitions)]


#: sha256 of each partition's doc ids over ``Corpus(4000, seed=1997)``,
#: recorded before the per-document lottery was restructured
MEMBERSHIP_DIGESTS = {
    (1.0,) * 16:
        "7298daa08c0d2e477246f8d6749172b3429b59cff7cc6427288771c2d7427441",
    (1.0, 2.0, 0.0001, 0.5, 3.0, 1.25):
        "c5b37b58357be86e275c239ae2ca8bd67dce8f5074761cfe4e2008cc721b1987",
}


@pytest.mark.parametrize("weights", sorted(MEMBERSHIP_DIGESTS))
def test_partition_membership_is_pinned(weights):
    corpus = Corpus(n_docs=4000, seed=1997)
    partition_map = PartitionMap(
        corpus, list(weights), RandomStreams(1997).stream("partition"))
    members = [[document.doc_id
                for document in partition_map.documents_in(partition)]
               for partition in range(len(weights))]
    assert hashlib.sha256(repr(members).encode()).hexdigest() \
        == MEMBERSHIP_DIGESTS[weights]


def test_global_df_counts_documents_per_term(corpus, partition_map):
    expected = {}
    for document in corpus:
        for term, _ in document.terms:
            expected[term] = expected.get(term, 0) + 1
    assert partition_map.global_df == expected
    # in first-occurrence order, which numbers the shared vocabulary
    assert list(partition_map.global_df) == list(expected)


def test_idf_table_is_written_once_and_equals_a_stand_alone_derivation(
        corpus, partition_map):
    """One table beside `global_df`, shared by every index the map
    builds; an index handed the frequencies derives the same floats."""
    alone = InvertedIndex(len(corpus), global_df=partition_map.global_df)
    assert alone.global_idf is not partition_map.global_idf
    assert {term: idf.hex() for term, idf in alone.global_idf.items()} \
        == {term: idf.hex()
            for term, idf in partition_map.global_idf.items()}
    assert set(alone.global_idf) == set(partition_map.global_df)
    ids, idf = partition_map.vocabulary
    assert {term: idf[term_id].hex() for term, term_id in ids.items()} \
        == {term: value.hex()
            for term, value in partition_map.global_idf.items()}
    assert InvertedIndex(len(corpus)).global_idf is None
    assert InvertedIndex(9, {"w1": 0, "w2": 3}).global_idf \
        == {"w2": ReferenceIndex(9, {"w2": 3}).idf("w2")}


def test_build_index_holds_exactly_the_partition(corpus, partition_map):
    for partition in range(partition_map.n_partitions):
        index = partition_map.build_index(partition)
        assert held(index) == reference_held(
            partition_map.documents_in(partition), len(corpus),
            partition_map.global_df)
        assert index.global_idf is partition_map.global_idf
        assert index.vocabulary is partition_map.vocabulary


def test_a_term_outside_a_shared_vocabulary_raises(corpus):
    """A shared vocabulary names every term its corpus has; a document
    with another is refused, not indexed without the postings."""
    index = InvertedIndex(total_corpus_size=len(corpus))
    index.vocabulary = Vocabulary.of({"w1": 1.5})
    with pytest.raises(ValueError, match="outside the vocabulary"):
        index.add_all([Document(0, "http://d/0", (("w1", 1), ("w2", 1)))])
    assert index.n_documents == 0


def test_fast_restart_rebuilds_an_index_that_answers_identically():
    hotbot = HotBot(config=HotBotConfig(n_workers=4, n_docs=400),
                    seed=2026)
    queries = [hotbot.corpus.vocabulary_sample(
        hotbot.cluster.streams.stream("test-queries"), 3)
        for _ in range(25)]
    original = hotbot.workers[2].index
    Faults(hotbot).arm((CrashSearchNode(at=0.0, partition=2,
                                        duration_s=1.0),))
    hotbot.run(until=5.0)
    rebuilt = hotbot.workers[2].index
    assert hotbot.workers[2].alive and rebuilt is not original
    vocabulary = [f"w{rank}"
                  for rank in range(hotbot.corpus.vocabulary_size)]
    assert contents(rebuilt, vocabulary) == contents(original, vocabulary)
    for query in queries:
        assert rebuilt.rank(query, k=10) == original.rank(query, k=10)
        assert rebuilt.search(query) == original.search(query)
