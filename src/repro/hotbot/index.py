"""Inverted index with tf-idf ranking.

Each search worker holds one of these over its partition of the corpus.
The implementation is real (build, query, merge), scaled down: HotBot's
full-text index over 54M pages becomes an in-memory index over a few
thousand synthetic documents, preserving the retrieval semantics the
collation step depends on (scores are comparable across partitions, so
the front end can merge top-k lists).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.hotbot.documents import Document


class SearchHit(NamedTuple):
    """One result: document id, url, and its relevance score.

    A worker builds ``k`` of these per query leg, so it is a tuple, not
    a dataclass: cheap to construct, and holding only atoms it is left
    alone by the cyclic collector.
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
        #: corpus-wide document frequencies, distributed to every
        #: partition at index-build time.  Without them each partition
        #: would compute its own idf and per-partition scores would not
        #: be comparable during collation.
        self.global_df = global_df
        self._postings: Dict[str, List[Tuple[int, int]]] = {}
        self._doc_urls: Dict[int, str] = {}
        self._doc_lengths: Dict[int, int] = {}

    # -- build --------------------------------------------------------------

    def add(self, document: Document) -> None:
        self.add_all((document,))

    def add_all(self, documents: Iterable[Document]) -> "InvertedIndex":
        """Index ``documents`` in one pass.  A partition is built, and
        after a crash rebuilt, by a single call with all its documents,
        so the loop runs on local names."""
        urls = self._doc_urls
        lengths = self._doc_lengths
        postings = self._postings
        for document in documents:
            doc_id = document.doc_id
            if doc_id in urls:
                raise ValueError(f"duplicate document {doc_id}")
            urls[doc_id] = document.url
            lengths[doc_id] = document.length
            for term, frequency in document.terms:
                entries = postings.get(term)
                if entries is None:
                    postings[term] = [(doc_id, frequency)]
                else:
                    entries.append((doc_id, frequency))
        return self

    def remove(self, doc_id: int) -> bool:
        """Drop one document (used when repartitioning)."""
        if doc_id not in self._doc_urls:
            return False
        del self._doc_urls[doc_id]
        del self._doc_lengths[doc_id]
        for term in list(self._postings):
            filtered = [(d, f) for d, f in self._postings[term]
                        if d != doc_id]
            if filtered:
                self._postings[term] = filtered
            else:
                del self._postings[term]
        return True

    @property
    def n_documents(self) -> int:
        return len(self._doc_urls)

    @property
    def n_terms(self) -> int:
        return len(self._postings)

    def postings_scanned(self, terms: Sequence[str]) -> int:
        """Posting entries a query touches (drives the latency model)."""
        return sum(len(self._postings.get(term, ())) for term in terms)

    # -- query ----------------------------------------------------------------

    def _idf(self, term: str) -> float:
        if self.global_df is not None:
            document_frequency = self.global_df.get(term, 0)
        else:
            document_frequency = len(self._postings.get(term, ()))
        if document_frequency == 0:
            return 0.0
        return math.log(
            1.0 + self.total_corpus_size / document_frequency)

    def query(self, terms: Sequence[str], k: int = 10) -> List[SearchHit]:
        """Top-k documents by tf-idf, ties broken by doc id (stable)."""
        if k <= 0:
            raise ValueError("k must be positive")
        scores: Dict[int, float] = {}
        # distinct terms in the order given, never set order: float
        # addition does not associate, so with three or more terms an
        # order that varies with PYTHONHASHSEED would vary the scores
        for term in dict.fromkeys(terms):
            idf = self._idf(term)
            if idf == 0.0:
                continue
            for doc_id, frequency in self._postings.get(term, ()):
                tf = 1.0 + math.log(frequency)
                scores[doc_id] = scores.get(doc_id, 0.0) + tf * idf
        # rank plain (-score, doc_id) tuples: no key call per candidate
        best = heapq.nsmallest(
            k, [(-score, doc_id) for doc_id, score in scores.items()])
        urls = self._doc_urls
        return [SearchHit(doc_id, urls[doc_id], -negated)
                for negated, doc_id in best]


def merge_hits(partials: Iterable[List[SearchHit]],
               k: int = 10) -> List[SearchHit]:
    """Collate per-partition top-k lists into a global top-k.

    This is the front end's aggregation step ("collects search results
    from a number of database partitions and collates the results").
    Scores are comparable because every partition uses the global N in
    its idf.
    """
    everything: List[SearchHit] = []
    for partial in partials:
        everything.extend(partial)
    everything.sort(key=lambda hit: (-hit.score, hit.doc_id))
    return everything[:k]
