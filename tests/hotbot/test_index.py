"""Tests for the corpus, inverted index, and partitioning."""

import os
from array import array
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.hotbot.documents import Corpus, Document
from repro.hotbot.index import (
    InvertedIndex,
    SearchHit,
    collate,
    hits_from_ranked,
    idf_table,
)
from repro.hotbot.partition import PartitionMap
from repro.sim.rng import RandomStreams
from tests.hotbot.reference import (
    ReferenceIndex,
    as_ranked,
    bits,
    contents,
    n_terms,
    reference_merge,
)


@pytest.fixture(scope="module")
def corpus():
    return Corpus(n_docs=300, seed=5)


@pytest.fixture(scope="module")
def index(corpus):
    return InvertedIndex(total_corpus_size=len(corpus)).add_all(corpus)


# -- corpus -------------------------------------------------------------------

def test_corpus_deterministic():
    first = Corpus(n_docs=20, seed=9)
    second = Corpus(n_docs=20, seed=9)
    assert [d.terms for d in first] == [d.terms for d in second]
    third = Corpus(n_docs=20, seed=10)
    assert [d.terms for d in first] != [d.terms for d in third]


def test_corpus_term_skew(corpus):
    """Zipf vocabulary: w0 appears in far more documents than w400."""
    def document_frequency(term):
        return sum(1 for doc in corpus if doc.tf(term) > 0)

    assert document_frequency("w0") > 5 * max(1, document_frequency("w400"))


def test_corpus_validates():
    with pytest.raises(ValueError):
        Corpus(n_docs=0)


# -- index ---------------------------------------------------------------------

def hits(index, corpus, terms, k):
    """The front end's answer: the ranked pairs, urls from the corpus."""
    return hits_from_ranked(index.rank(terms, k), corpus.urls)


def test_query_returns_relevant_docs(index, corpus):
    # pick a mid-frequency term; all returned docs must contain it
    hits = index.rank(["w50"], k=5)
    assert hits
    docs_by_id = {doc.doc_id: doc for doc in corpus}
    for _, doc_id in hits:
        assert docs_by_id[doc_id].tf("w50") > 0


def test_query_scores_sorted_descending(index, corpus):
    scores = [hit.score for hit in hits(index, corpus, ["w10", "w20"], 20)]
    assert scores == sorted(scores, reverse=True)


def test_query_unknown_term_empty(index):
    assert index.rank(["nonexistent-term"], k=5) == []


def test_query_k_validated(index):
    with pytest.raises(ValueError):
        index.rank(["w1"], k=0)


def test_rare_terms_outweigh_common(index, corpus):
    """idf: a doc matching a rare term scores above one matching only a
    stopword-like common term."""
    # find a rare and a common term
    from collections import Counter
    df = Counter()
    for doc in corpus:
        for term, _ in doc.terms:
            df[term] += 1
    common = df.most_common(1)[0][0]
    rare = min((t for t in df if df[t] >= 2), key=lambda t: df[t])
    both = index.rank([common, rare], k=len(corpus))
    rare_docs = {doc_id for _, doc_id in index.rank([rare], k=50)}
    # top hit for the combined query should involve the rare term
    assert both[0][1] in rare_docs


def test_duplicate_add_rejected(index, corpus):
    with pytest.raises(ValueError, match="duplicate document 0"):
        InvertedIndex(len(corpus)).add_all([corpus.document(0)] * 2)
    with pytest.raises(ValueError, match="built once"):
        index.add_all([corpus.document(0)])


def test_remove_document():
    """An index is immutable: a document is removed by building without
    it, which leaves what the reference holds after `remove`."""
    corpus = Corpus(n_docs=10, seed=2)
    target = corpus.document(0)
    index = InvertedIndex(total_corpus_size=10).add_all(list(corpus)[1:])
    reference = ReferenceIndex(10).add_all(corpus)
    assert reference.remove(target.doc_id)
    assert index.n_documents == 9
    for ranked in [index.rank([t], k=10) for t, _ in target.terms[:3]]:
        assert all(doc_id != target.doc_id for _, doc_id in ranked)
    vocabulary = [f"w{rank}" for rank in range(corpus.vocabulary_size)]
    assert contents(index, vocabulary) == contents(reference, vocabulary)


HASH_SEED_PROBE = """
from repro.hotbot.documents import Corpus
from repro.hotbot.index import InvertedIndex
from repro.sim.rng import RandomStreams

corpus = Corpus(n_docs=600, seed=3)
index = InvertedIndex(total_corpus_size=len(corpus)).add_all(corpus)
rng = RandomStreams(3).stream("queries")
for _ in range(40):
    terms = corpus.vocabulary_sample(rng, 4)
    print(" ".join(f"{doc_id}:{(-negated).hex()}"
                   for negated, doc_id in index.rank(terms, k=10)))
"""


def test_scores_do_not_depend_on_the_hash_seed():
    """Same seed, same trajectory, in *any* process: with three or more
    terms the order the scores are summed in shows in their last bits,
    so it must come from the query, never from set iteration order
    (which PYTHONHASHSEED moves)."""
    source = str(Path(repro.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE], check=True,
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=source,
                     PYTHONHASHSEED=hash_seed)).stdout
        for hash_seed in ("1", "2", "3")]
    assert outputs[0].count("\n") == 40 and ":" in outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def sharing(total_corpus_size, global_df):
    """An empty index scoring with the idfs of ``global_df`` (None: its
    own), as `PartitionMap` hands every partition the corpus-wide
    ones."""
    index = InvertedIndex(total_corpus_size)
    if global_df is not None:
        index.global_idf = idf_table(total_corpus_size, global_df)
    return index


def corpus_of(documents):
    """A `Corpus` whose columns hold ``documents`` (doc ids 0, 1, ...
    in order), numbering their terms in first-occurrence order: for
    tests that write their documents by hand."""
    assert [document.doc_id for document in documents] \
        == list(range(len(documents)))
    corpus = Corpus.__new__(Corpus)
    corpus.term_names = list(dict.fromkeys(
        term for document in documents for term in document.term_names))
    rank = {term: number for number, term in enumerate(corpus.term_names)}
    corpus.n_docs, corpus.vocabulary_size = (len(documents),
                                             len(corpus.term_names))
    corpus.urls = [document.url for document in documents]
    corpus.ranks = array("H", [rank[term] for document in documents
                               for term in document.term_names])
    corpus.frequencies = array("H", [
        frequency for document in documents
        for frequency in document.frequencies])
    corpus.offsets = array("i", [0])
    for document in documents:
        corpus.offsets.append(corpus.offsets[-1]
                              + len(document.term_names))
    return corpus


def tie_prone_corpus(seed):
    """Documents that hold a term equally often score it alike (tf-idf,
    no length norm), so equal scores are common and the doc-id
    tie-break is exercised."""
    return Corpus(n_docs=120, seed=seed)


def df_of(corpus):
    df = {}
    for document in corpus:
        for term, _ in document.terms:
            df[term] = df.get(term, 0) + 1
    return df


def query_mix(corpus, rng, n):
    """One- to four-term queries; some repeat a term, some name a term
    no document has."""
    for _ in range(n):
        terms = corpus.vocabulary_sample(rng, 1 + rng.randint(0, 3))
        if rng.random() < 0.3:
            terms.insert(rng.randint(0, len(terms)), terms[0])
        if rng.random() < 0.3:
            terms.insert(rng.randint(0, len(terms)), "no-such-term")
        yield terms


def assert_same_answers(index, reference, terms, corpus):
    """rank() and the hits made from it against the reference, to the
    bit and in order, for k below, at and above the number of
    matches."""
    assert index.search(terms)[0] == reference.postings_scanned(terms)
    matches = len(reference.query(terms, len(corpus)))
    for k in {1, max(1, matches - 1), max(1, matches), matches + 5}:
        expected = reference.query(terms, k)
        assert len(expected) == min(k, matches)
        assert bits(hits(index, corpus, terms, k)) == bits(expected)
        assert index.rank(terms, k) == as_ranked(expected)


@pytest.mark.parametrize("seed", range(8))
def test_query_equals_naive_full_sort(seed):
    """Typed-array ranking == the tuple-postings reference with its
    `math.log` per posting and full key-function sort: same hits, same
    order (ties included), scores bit for bit — with the partition's
    own document frequencies and with corpus-wide ones handed in."""
    corpus = tie_prone_corpus(seed)
    rng = RandomStreams(seed).stream("queries")
    for global_df in (None, df_of(corpus)):
        index = sharing(len(corpus), global_df).add_all(corpus)
        reference = ReferenceIndex(len(corpus), global_df).add_all(corpus)
        vocabulary = [f"w{rank}" for rank in range(corpus.vocabulary_size)]
        assert (index.n_documents, n_terms(index, vocabulary)) \
            == (reference.n_documents, reference.n_terms)
        ties = 0
        for terms in query_mix(corpus, rng, 12):
            assert_same_answers(index, reference, terms, corpus)
            scores = [score for score, _ in index.rank(terms, len(corpus))]
            ties += len(scores) - len(set(scores))
        assert ties > 0


@pytest.mark.parametrize("seed", range(3))
def test_remove_then_add_equals_the_reference(seed):
    """Repartitioning rebuilds: the reference removes documents and
    re-adds some in place, and an index built from what it then holds,
    in the same order, holds exactly the same — emptied terms
    included."""
    corpus = tie_prone_corpus(seed)
    global_df = df_of(corpus)  # corpus-wide, so no idf moves
    reference = ReferenceIndex(len(corpus), global_df).add_all(corpus)
    rng = RandomStreams(seed).stream("churn")
    vocabulary = [f"w{rank}" for rank in range(corpus.vocabulary_size)]
    rarest = min(global_df, key=lambda term: (global_df[term], term))
    # every holder of the rarest term (it loses all its postings), a
    # random handful more, and a repeat that must report False
    victims = [document for document in corpus if document.tf(rarest)]
    victims += [corpus.document(rng.randint(0, len(corpus) - 1))
                for _ in range(30)]
    victims.append(victims[0])
    removed = [reference.remove(victim.doc_id) for victim in victims]
    assert removed[0] and not removed[-1]
    gone = {victim.doc_id for victim in victims}
    survivors = [document for document in corpus
                 if document.doc_id not in gone]
    index = sharing(len(corpus), global_df).add_all(survivors)
    assert n_terms(index, vocabulary) == reference.n_terms \
        < len(global_df)
    assert index.search([rarest]) == (0, {})
    assert contents(index, vocabulary) == contents(reference, vocabulary)
    returned = list(dict.fromkeys(victims[:-10]))
    for victim in returned:
        reference.add(victim)
    index = sharing(len(corpus), global_df).add_all(
        survivors + returned)
    assert contents(index, vocabulary) == contents(reference, vocabulary)
    for terms in query_mix(corpus, rng, 12):
        assert_same_answers(index, reference, terms, corpus)


SMALL_VOCABULARY = [f"w{rank}" for rank in range(8)]

small_documents = st.lists(
    st.dictionaries(st.sampled_from(SMALL_VOCABULARY),
                    st.integers(1, 9), min_size=1, max_size=6),
    min_size=1, max_size=12)

#: doc ids past 16 bits and frequencies past 8 make a build fall back
#: from ``'H'`` doc ids to ``'i'`` and from ``'B'`` frequencies to
#: ``'H'``
WIDE_DOC_ID = 100_000
WIDE_FREQUENCY = 400


@st.composite
def typed_documents(draw):
    """``(documents, wide_ids, wide_frequencies)``: documents over the
    small vocabulary whose doc ids and frequencies each fit the narrow
    typecode, up to its edge, or overflow it."""
    wide_ids, wide_frequencies = draw(st.booleans()), draw(st.booleans())
    vectors = draw(st.lists(
        st.dictionaries(st.sampled_from(SMALL_VOCABULARY), st.integers(
            1, WIDE_FREQUENCY if wide_frequencies else 255),
            min_size=1, max_size=6),
        min_size=1, max_size=12))
    doc_ids = draw(st.lists(st.integers(0, 65535), unique=True,
                            min_size=len(vectors), max_size=len(vectors)))
    if wide_ids:
        doc_ids[0] = draw(st.integers(65536, WIDE_DOC_ID))
    if wide_frequencies:
        term = next(iter(vectors[-1]))
        vectors[-1][term] = draw(st.integers(256, WIDE_FREQUENCY))
    documents = [Document(doc_id, f"http://d/{doc_id}",
                          tuple(sorted(vector.items())))
                 for doc_id, vector in zip(doc_ids, vectors)]
    return documents, wide_ids, wide_frequencies


#: more candidates than ``k = 4`` (the reference's candidates - 1),
#: four tied below the best across the 4th place, listed (so posted)
#: with the highest doc id first: the cut keeps 2, 5 and 7, never 9
TIE_AT_THE_CUT = [
    Document(doc_id, f"http://d/{doc_id}", (("w1", frequency),))
    for doc_id, frequency in ((9, 2), (8, 3), (7, 2), (5, 2), (2, 2))]


@settings(derandomize=True, max_examples=200, deadline=None)
@example(typed=(TIE_AT_THE_CUT, False, False), terms=["w1"],
         forgotten="w0", global_mode=False)
@given(typed=typed_documents(), terms=st.lists(
           st.sampled_from(SMALL_VOCABULARY + ["no-such-term"]),
           min_size=1, max_size=4),
       forgotten=st.sampled_from(SMALL_VOCABULARY),
       global_mode=st.booleans())
def test_search_equals_the_reference(typed, terms, forgotten, global_mode):
    """A partition's one call against the slow index, scores by
    `float.hex()`, with doc ids and frequencies in the narrow typecodes
    and in the wide ones: an empty query finds nothing, `scanned` counts a repeated term each time it
    is named while its postings are scored once, an unknown term and a
    term the corpus-wide frequencies leave out (idf 0) are scanned but
    not scored, and `k` cuts below, at and above the number of
    candidates — in both df modes.  A partition's map holds exactly
    the reference's k best, a tie across the k-th place going to the
    lower doc id, and `rank` orders them as the reference does."""
    documents, wide_ids, wide_frequencies = typed
    global_df = None
    if global_mode:
        global_df = df_of(documents)
        global_df.pop(forgotten, None)
    index = sharing(len(documents), global_df).add_all(documents)
    reference = ReferenceIndex(len(documents), global_df).add_all(
        documents)
    # storage, read only to show which typecodes this example built
    assert (index._doc_ids.typecode, index._frequencies.typecode) == (
        "i" if wide_ids else "H", "H" if wide_frequencies else "B")

    assert index.search([]) == (0, {})
    candidates = len(reference.query(terms, len(documents)))
    for k in {1, max(1, candidates - 1), candidates + 3}:
        scanned, scores = index.search(terms, k)
        assert scanned == reference.postings_scanned(terms)
        expected = [(doc_id, score.hex())
                    for doc_id, _, score in reference.query(terms, k)]
        assert sorted((doc_id, score.hex())
                      for doc_id, score in scores.items()) \
            == sorted(expected)
        assert [(doc_id, (-negated).hex())
                for negated, doc_id in index.rank(terms, k)] == expected


SOLO = "w-solo"
mixed_queries = st.lists(
    st.sampled_from(SMALL_VOCABULARY + [SOLO, "no-such-term"]),
    min_size=1, max_size=5)


def assert_flat_equals_reference(index, reference, queries):
    """`contents()`, and every search's scan count and scores, and the
    ranking collated from them, to the bit."""
    vocabulary = SMALL_VOCABULARY + [SOLO, "no-such-term"]
    assert contents(index, vocabulary) == contents(reference, vocabulary)
    for terms in queries:
        for k in (1, 3, max(1, reference.n_documents)):
            scanned, scores = index.search(terms, k)
            assert scanned == reference.postings_scanned(terms)
            assert [(doc_id, (-negated).hex())
                    for negated, doc_id in collate([scores], k)] \
                == [(doc_id, score.hex())
                    for doc_id, _, score in reference.query(terms, k)]


@settings(max_examples=100, deadline=None)
@given(vectors=small_documents,
       weights=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 16), queries=st.lists(
           mixed_queries, min_size=1, max_size=4),
       forgotten=st.sampled_from(SMALL_VOCABULARY))
def test_flat_indexes_equal_the_reference(vectors, weights, seed, queries,
                                          forgotten):
    """Every index over a shared vocabulary — one per partition, an
    empty one and the only holder of a term among them — and a
    stand-alone index that derives its own, under local idf and under
    corpus-wide idf with a term forgotten, hold and answer what the
    tuple-postings reference does."""
    documents = [Document(doc_id, f"http://d/{doc_id}",
                          tuple(sorted(vector.items())))
                 for doc_id, vector in enumerate(vectors)]
    documents.append(Document(len(documents), "http://d/solo",
                              ((SOLO, 2),)))
    corpus = corpus_of(documents)
    assert list(corpus) == documents
    # first and of weight ~0, so no lottery draw short of exactly 0.0
    # lands there: a partition with no documents
    partition_map = PartitionMap(corpus, [1e-300] + weights,
                                 RandomStreams(seed).stream("pm"))
    assert partition_map.partition_sizes()[0] == 0
    indexes, references = [], []
    for partition in range(partition_map.n_partitions):
        indexes.append(partition_map.build_index(partition))
        references.append(
            ReferenceIndex(len(corpus), partition_map.global_df).add_all(
                partition_map.documents_in(partition)))
        assert_flat_equals_reference(indexes[-1], references[-1], queries)
    assert sum(index.search([SOLO])[0] > 0 for index in indexes) == 1
    for terms in queries:
        assert collate([index.search(terms, 4)[1] for index in indexes],
                       4) \
            == as_ranked(reference_merge(
                [reference.query(terms, 4) for reference in references], 4))

    global_df = df_of(corpus)
    global_df.pop(forgotten, None)
    for df in (None, global_df):
        assert_flat_equals_reference(
            sharing(len(corpus), df).add_all(corpus),
            ReferenceIndex(len(corpus), df).add_all(corpus), queries)


def test_a_repeated_term_is_scanned_twice_and_scored_once(index):
    once, ranked_once = index.search(["w5"])
    twice, ranked_twice = index.search(["w5", "w5"])
    assert twice == 2 * once > 0
    assert ranked_twice == ranked_once != {}


def test_search_validates_k(index):
    with pytest.raises(ValueError):
        index.search(["w1"], 0)


def test_search_hit_constructs_compares_and_hashes():
    hit = SearchHit(doc_id=3, url="http://d/3", score=1.5)
    assert hit == SearchHit(3, "http://d/3", 1.5)
    assert hit != SearchHit(3, "http://d/3", 1.25)
    assert (hit.doc_id, hit.url, hit.score) == (3, "http://d/3", 1.5)
    assert len({hit, SearchHit(3, "http://d/3", 1.5)}) == 1
    with pytest.raises(AttributeError):
        hit.score = 2.0


def test_postings_scanned_counts(index, corpus):
    """A document names a term once, so each posting scanned is one
    ranked document."""
    scanned, scores = index.search(["w0"], len(corpus))
    assert scanned == len(scores) > 0
    assert index.search(["missing"]) == (0, {})


# -- partition + merge: the key distributed-correctness property ------------------

def test_partitioned_query_equals_global_query(corpus):
    """Scatter-gather over partitions must return the same top-k as one
    big index (this is what makes collation correct)."""
    rng = RandomStreams(3).stream("pm")
    partition_map = PartitionMap(corpus, [1.0] * 4, rng)
    partials = [
        partition_map.build_index(partition).search(["w5", "w17"], k=10)[1]
        for partition in range(4)
    ]
    merged = collate(partials, k=10)
    global_index = InvertedIndex(total_corpus_size=len(corpus)).add_all(
        corpus)
    expected = hits(global_index, corpus, ["w5", "w17"], 10)
    assert [doc_id for _, doc_id in merged] \
        == [h.doc_id for h in expected]
    urls = {document.doc_id: document.url for document in corpus}
    assert [hit[:2] for hit in hits_from_ranked(merged, urls)] \
        == [hit[:2] for hit in expected]


@pytest.mark.parametrize("seed", range(4))
def test_collated_partition_ranks_equal_the_global_rank(seed):
    """With corpus-wide document frequencies a document scores the
    same, to the bit, in its partition and in one big index, so
    collating the partitions' score maps gives the global ranking — and
    the reference's key-function merge of its own partials, also when
    a partition is missing from the gather."""
    corpus = tie_prone_corpus(seed)
    partition_map = PartitionMap(
        corpus, [1.0, 2.0, 0.5], RandomStreams(seed).stream("pm"))
    global_df = partition_map.global_df
    indexes = [partition_map.build_index(partition)
               for partition in range(3)]
    references = [
        ReferenceIndex(len(corpus), global_df).add_all(
            partition_map.documents_in(partition))
        for partition in range(3)]
    global_index = sharing(len(corpus), global_df).add_all(corpus)
    rng = RandomStreams(seed).stream("queries")
    for terms in query_mix(corpus, rng, 12):
        for k in (1, 7, len(corpus)):
            answers = [index.search(terms, k)[1] for index in indexes]
            merged = collate(answers, k)
            assert merged == global_index.rank(terms, k)
            assert merged == as_ranked(reference_merge(
                [reference.query(terms, k) for reference in references],
                k))
            # a partial gather: every partition but one answered
            for missing in range(3):
                partial = collate(answers[:missing] + answers[missing + 1:],
                                  k)
                assert [(doc_id, negated.hex())
                        for negated, doc_id in partial] \
                    == [(doc_id, negated.hex())
                        for negated, doc_id in as_ranked(reference_merge(
                            [reference.query(terms, k) for reference
                             in references[:missing]
                             + references[missing + 1:]], k))]


def test_partition_sizes_follow_weights(corpus):
    rng = RandomStreams(3).stream("pm")
    partition_map = PartitionMap(corpus, [3.0, 1.0], rng)
    big, small = partition_map.partition_sizes()
    assert big + small == len(corpus)
    assert big > 1.8 * small  # proportional to CPU power


def test_partition_sizes_is_a_fresh_list(corpus):
    """coverage_without() reads the counts made at construction; a
    caller scribbling on what partition_sizes() returned must not reach
    them."""
    rng = RandomStreams(3).stream("pm")
    partition_map = PartitionMap(corpus, [1.0] * 4, rng)
    sizes = partition_map.partition_sizes()
    assert sizes == [len(partition_map.documents_in(partition))
                     for partition in range(4)]
    before = partition_map.coverage_without([1, 1, 2])
    assert before == 1.0 - (sizes[1] + sizes[2]) / len(corpus)
    sizes[1] = 10 ** 6
    assert partition_map.partition_sizes() is not sizes
    assert partition_map.partition_sizes()[1] != 10 ** 6
    assert partition_map.coverage_without([1, 1, 2]) == before


def test_coverage_without_failed_partitions(corpus):
    rng = RandomStreams(3).stream("pm")
    partition_map = PartitionMap(corpus, [1.0] * 26, rng)
    coverage = partition_map.coverage_without([0])
    # 26 nodes, lose 1: 54M -> ~51M, i.e. ~96% coverage
    assert coverage == pytest.approx(25 / 26, abs=0.02)
    assert partition_map.coverage_without([]) == 1.0


def test_partition_map_validates(corpus):
    rng = RandomStreams(3).stream("pm")
    with pytest.raises(ValueError):
        PartitionMap(corpus, [], rng)
    with pytest.raises(ValueError):
        PartitionMap(corpus, [1.0, -1.0], rng)


@settings(max_examples=20, deadline=None)
@given(n_partitions=st.integers(1, 8), seed=st.integers(0, 100))
def test_merge_invariant_any_partitioning(n_partitions, seed):
    """Property: for any random partitioning, merged scatter-gather
    equals the global answer."""
    corpus = Corpus(n_docs=60, seed=7)
    rng = RandomStreams(seed).stream("pm")
    partition_map = PartitionMap(corpus, [1.0] * n_partitions, rng)
    terms = ["w3", "w8"]
    partials = [partition_map.build_index(p).search(terms, k=8)[1]
                for p in range(n_partitions)]
    merged = collate(partials, k=8)
    global_index = InvertedIndex(total_corpus_size=60).add_all(corpus)
    expected = hits(global_index, corpus, terms, 8)
    assert [doc_id for _, doc_id in merged] \
        == [h.doc_id for h in expected]
