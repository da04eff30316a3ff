"""Inverted index with tf-idf ranking.

Each search worker holds one of these over its partition of the corpus.
The implementation is real (build, query, merge), scaled down: HotBot's
full-text index over 54M pages becomes an in-memory index over a few
thousand synthetic documents, preserving the retrieval semantics the
collation step depends on (scores are comparable across partitions, so
the front end can merge top-k lists).

A partition fetches *columns* — ``(idf, doc ids, weights)`` per query
term — and ranks them into *pairs* — ``(-score, doc_id)``, ascending —
which the front end collates, caches and pages from; :class:`SearchHit`
objects are made at the edge, for the one page a user is served.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.hotbot.documents import Document

#: one ranked candidate, ``(-score, doc_id)``: plain tuple comparison
#: orders a list of them best first with ties broken by doc id.
Ranked = Tuple[float, int]
#: one query term's postings with its idf: ``(idf, doc ids, weights)``
Column = Tuple[float, array, array]


def idf_table(total_corpus_size: int,
              global_df: Mapping[str, int]) -> Dict[str, float]:
    """term -> idf under corpus-wide document frequencies: fixed when
    a deployment is built, so a query reads its idf as a lookup."""
    return {term: math.log(1.0 + total_corpus_size / frequency)
            for term, frequency in global_df.items() if frequency}


class Vocabulary(NamedTuple):
    """Term ids and the idf of each id.

    ``PartitionMap`` makes one from its corpus-wide idf table and every
    index it builds shares it; a stand-alone index derives its own from
    its documents.
    """

    ids: Dict[str, int]
    #: term id -> idf (``array('d')``); 0.0 means "scanned, not scored"
    idf: array

    @classmethod
    def of(cls, global_idf: Mapping[str, float]) -> "Vocabulary":
        """The terms of an idf table, numbered in its order."""
        return cls({term: term_id for term_id, term in enumerate(global_idf)},
                   array("d", global_idf.values()))


class SearchHit(NamedTuple):
    """One result: document id, url, and its relevance score.

    It is a tuple, not a dataclass: cheap to construct, and holding
    only atoms it is left alone by the cyclic collector.
    """

    doc_id: int
    url: str
    score: float


class InvertedIndex:
    """term -> postings, with tf-idf scoring over a document set.

    Built once, by :meth:`add_all`, and never changed after: a
    partition's postings are two flat typed arrays grouped by term id
    (compressed sparse rows), term ``t``'s being
    ``[offsets[t], offsets[t + 1])`` of each.
    """

    def __init__(self, total_corpus_size: int,
                 global_df: "Dict[str, int] | None" = None) -> None:
        if total_corpus_size <= 0:
            raise ValueError("corpus size must be positive")
        #: N used in idf — the *whole* corpus, not this partition, so
        #: scores merge correctly across partitions.
        self.total_corpus_size = total_corpus_size
        #: term -> idf under the corpus-wide document frequencies every
        #: partition is given at build time.  Without them (None) each
        #: computes its own and scores are not comparable at collation.
        self.global_idf = (None if global_df is None else
                           idf_table(total_corpus_size, global_df))
        #: the shared term ids and idfs ``PartitionMap`` hands in before
        #: the build; without one (None) the build derives its own from
        #: the documents
        self.vocabulary: "Vocabulary | None" = None
        #: terms with at least one posting
        self.n_terms = 0
        # the vocabulary the build used, and the postings: doc ids and
        # tf weights ``1.0 + log(frequency)`` (the only thing ranking
        # ever wanted from a frequency, taken once, at build time), each
        # in one array, grouped by term id
        self._ids: Dict[str, int] = {}
        self._idf = array("d")
        self._offsets = array("i", [0])
        self._doc_ids = array("i")
        self._weights = array("d")
        self._doc_urls: Dict[int, str] = {}

    # -- build --------------------------------------------------------------

    def add_all(self, documents: Iterable[Document]) -> "InvertedIndex":
        """Index ``documents`` in one pass: collect each term's
        postings in document order, then pack them by term id.  A
        duplicate document raises before anything is indexed, and an
        index is built once."""
        return self.add_rows((document.doc_id, document.url,
                              document.term_names, document.frequencies)
                             for document in documents)

    def add_rows(self, rows: Iterable[Tuple[int, str, Sequence, array]],
                 names: "Sequence[str] | None" = None) -> "InvertedIndex":
        """:meth:`add_all` over ``(doc_id, url, terms, frequencies)``
        rows, where a term is its name or, given ``names``, its index
        in them: a partition is built, and after a crash rebuilt, from
        its documents' rows of the corpus columns
        (:meth:`Corpus.rows`), by a single call."""
        if self._doc_urls:
            raise ValueError("an index holding documents is built once")
        urls: Dict[int, str] = {}
        postings: Dict[object, Tuple[List[int], List[float]]] = {}
        log = math.log
        # frequency -> weight: a corpus has a few dozen distinct ones
        weights: Dict[int, float] = {}
        for doc_id, url, terms, frequencies in rows:
            if doc_id in urls:
                raise ValueError(f"duplicate document {doc_id}")
            urls[doc_id] = url
            for term, frequency in zip(terms, frequencies):
                try:
                    weight = weights[frequency]
                except KeyError:
                    weight = weights[frequency] = 1.0 + log(frequency)
                entry = postings.get(term)
                if entry is None:
                    entry = postings[term] = ([], [])
                entry[0].append(doc_id)
                entry[1].append(weight)
        if names is not None:
            postings = {names[term]: entry
                        for term, entry in postings.items()}
        vocabulary = self.vocabulary
        if vocabulary is None:
            vocabulary = self._derive_vocabulary(postings)
        # pack: one list each, then one exactly sized array each
        all_doc_ids: List[int] = []
        all_weights: List[float] = []
        offsets = array("i", [0])
        packed = 0
        for term in vocabulary.ids:
            entry = postings.get(term)
            if entry is not None:
                all_doc_ids += entry[0]
                all_weights += entry[1]
                packed += 1
            offsets.append(len(all_doc_ids))
        if packed != len(postings):
            raise ValueError("a document names a term outside the "
                             "vocabulary")
        self._ids, self._idf = vocabulary
        self.n_terms = packed
        self._offsets = offsets
        # doc ids are 32-bit: a larger one raises OverflowError here
        self._doc_ids = array("i", all_doc_ids)
        self._weights = array("d", all_weights)
        self._doc_urls = urls
        return self

    def _derive_vocabulary(self, postings: Mapping[str, Tuple[list, list]]
                           ) -> Vocabulary:
        """This index's own terms, numbered in first-occurrence order,
        with the corpus-wide idf or, without one, the local one."""
        global_idf = self.global_idf
        if global_idf is None:
            n = self.total_corpus_size
            idf = [math.log(1.0 + n / len(doc_ids))
                   for doc_ids, _ in postings.values()]
        else:
            idf = [global_idf.get(term, 0.0) for term in postings]
        return Vocabulary(
            {term: term_id for term_id, term in enumerate(postings)},
            array("d", idf))

    @property
    def n_documents(self) -> int:
        return len(self._doc_urls)

    # -- query ----------------------------------------------------------------

    def lookup(self, terms: Sequence[str]) -> Tuple[int, List[Column]]:
        """One fetch of a query's postings: ``(scanned, columns)``.
        ``scanned`` counts a repeated term each time it is named (it
        drives the latency model); ``columns`` holds each distinct term
        with a non-zero idf once, its postings sliced from the flat
        arrays."""
        ids = self._ids
        idf = self._idf
        offsets = self._offsets
        doc_ids = self._doc_ids
        weights = self._weights
        scanned = 0
        # distinct terms in the order given, never set order: float
        # addition does not associate, so with three or more terms an
        # order that varies with PYTHONHASHSEED would vary the scores
        columns: Dict[int, Column] = {}
        for term in terms:
            term_id = ids.get(term)
            if term_id is None:
                continue
            start = offsets[term_id]
            end = offsets[term_id + 1]
            if start == end:
                continue
            scanned += end - start
            if term_id in columns:
                continue
            term_idf = idf[term_id]
            if term_idf != 0.0:
                columns[term_id] = (term_idf, doc_ids[start:end],
                                    weights[start:end])
        return scanned, list(columns.values())

    def rank(self, terms: Sequence[str], k: int = 10) -> List[Ranked]:
        """The k best ``(-score, doc_id)`` pairs by tf-idf, ascending:
        best score first, ties broken by doc id."""
        return rank_columns(self.lookup(terms)[1], k)

    def query(self, terms: Sequence[str], k: int = 10) -> List[SearchHit]:
        """Top-k documents by tf-idf, ties broken by doc id (stable)."""
        return hits_from_ranked(self.rank(terms, k), self._doc_urls)


def rank_columns(columns: Iterable[Column], k: int = 10) -> List[Ranked]:
    """The k best pairs of fetched columns: the one ranking loop, which
    a partition server runs after the compute wait its fetch priced."""
    if k <= 0:
        raise ValueError("k must be positive")
    scores: Dict[int, float] = {}
    get = scores.get
    for idf, doc_ids, weights in columns:
        for doc_id, weight in zip(doc_ids, weights):
            scores[doc_id] = get(doc_id, 0.0) + weight * idf
    ranked = [(-score, doc_id) for doc_id, score in scores.items()]
    ranked.sort()
    return ranked[:k]


def collate(partials: Iterable[List[Ranked]], k: int = 10) -> List[Ranked]:
    """Collate per-partition ranked lists into the global top-k.

    This is the front end's aggregation step ("collects search results
    from a number of database partitions and collates the results").
    Scores are comparable because every partition uses the global N in
    its idf, and a document lives in one partition, so the pairs are
    distinct and tuple order is the whole ranking.
    """
    everything: List[Ranked] = []
    for partial in partials:
        everything += partial
    everything.sort()
    return everything[:k]


def hits_from_ranked(ranked: Iterable[Ranked],
                     urls: Mapping[int, str]) -> List[SearchHit]:
    """The result objects for ranked pairs, in their order."""
    return [SearchHit(doc_id, urls[doc_id], -negated)
            for negated, doc_id in ranked]
