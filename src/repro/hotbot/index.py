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


class SearchHit(NamedTuple):
    """One result: document id, url, and its relevance score.

    It is a tuple, not a dataclass: cheap to construct, and holding
    only atoms it is left alone by the cyclic collector.
    """

    doc_id: int
    url: str
    score: float


class InvertedIndex:
    """term -> postings, with tf-idf scoring over a document set."""

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
        #: term -> (doc ids, tf weights): two parallel typed arrays in
        #: the order the documents were added.  The weight is
        #: ``1.0 + log(frequency)``, the only thing ranking ever wanted
        #: from a frequency, so it is taken once, at build time.
        self._postings: Dict[str, Tuple[array, array]] = {}
        self._doc_urls: Dict[int, str] = {}

    # -- build --------------------------------------------------------------

    def add(self, document: Document) -> None:
        self.add_all((document,))

    def add_all(self, documents: Iterable[Document]) -> "InvertedIndex":
        """Index ``documents`` in one pass.  A partition is built, and
        after a crash rebuilt, by a single call with all its documents,
        so the loop runs on local names."""
        urls = self._doc_urls
        postings = self._postings
        log = math.log
        # frequency -> weight: a corpus has a few dozen distinct ones
        weights: Dict[int, float] = {}
        for document in documents:
            doc_id = document.doc_id
            if doc_id in urls:
                raise ValueError(f"duplicate document {doc_id}")
            urls[doc_id] = document.url
            for term, frequency in zip(document.term_names,
                                       document.frequencies):
                try:
                    weight = weights[frequency]
                except KeyError:
                    weight = weights[frequency] = 1.0 + log(frequency)
                entry = postings.get(term)
                if entry is None:
                    entry = postings[term] = (array("q"), array("d"))
                entry[0].append(doc_id)
                entry[1].append(weight)
        return self

    def remove(self, doc_id: int) -> bool:
        """Drop one document (used when repartitioning)."""
        if doc_id not in self._doc_urls:
            return False
        del self._doc_urls[doc_id]
        for term, (doc_ids, weights) in list(self._postings.items()):
            while doc_id in doc_ids:
                position = doc_ids.index(doc_id)
                del doc_ids[position]
                del weights[position]
            if not doc_ids:
                del self._postings[term]
        return True

    @property
    def n_documents(self) -> int:
        return len(self._doc_urls)

    @property
    def n_terms(self) -> int:
        return len(self._postings)

    # -- query ----------------------------------------------------------------

    def lookup(self, terms: Sequence[str]) -> Tuple[int, List[Column]]:
        """One fetch of a query's postings: ``(scanned, columns)``.
        ``scanned`` counts a repeated term each time it is named (it
        drives the latency model); ``columns`` holds each distinct term
        with a non-zero idf once."""
        postings = self._postings
        global_idf = self.global_idf
        scanned = 0
        # distinct terms in the order given, never set order: float
        # addition does not associate, so with three or more terms an
        # order that varies with PYTHONHASHSEED would vary the scores
        columns: Dict[str, Column] = {}
        for term in terms:
            entry = postings.get(term)
            if entry is None:
                continue
            scanned += len(entry[0])
            if term in columns:
                continue
            if global_idf is None:
                idf = math.log(
                    1.0 + self.total_corpus_size / len(entry[0]))
            else:
                idf = global_idf.get(term, 0.0)
            if idf != 0.0:
                columns[term] = (idf, *entry)
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
