"""Inverted index with tf-idf ranking.

Each search worker holds one of these over its partition of the corpus.
The implementation is real (build, query, merge), scaled down: HotBot's
full-text index over 54M pages becomes an in-memory index over a few
thousand synthetic documents, preserving the retrieval semantics the
collation step depends on (scores are comparable across partitions, so
the front end can merge top-k lists).

A partition answers a query with one :meth:`InvertedIndex.search`:
the postings it scanned and its candidates' *scores*, doc id -> score,
unsorted.  The front end ranks once, in :func:`collate`, into
``(-score, doc_id)`` pairs it caches and pages from;
:class:`SearchHit` objects are made at the edge, for the one page a
user is served.
"""

from __future__ import annotations

import math
from array import array
from operator import neg
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.domains import check_args, count
from repro.hotbot.documents import Document

#: one ranked candidate, ``(-score, doc_id)``: plain tuple comparison
#: orders a list of them best first with ties broken by doc id.
Ranked = Tuple[float, int]


def narrowest(values: List[int], typecodes: str) -> array:
    """``values`` as an array of the first of ``typecodes`` that holds
    every one of them; past the last, OverflowError."""
    for typecode in typecodes[:-1]:
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    return array(typecodes[-1], values)


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

    #: argument domains (a NaN corpus size would make every idf NaN)
    DOMAINS = {"total_corpus_size": count(1)}

    def __init__(self, total_corpus_size: int) -> None:
        check_args(self.DOMAINS, total_corpus_size=total_corpus_size)
        #: N used in idf — the *whole* corpus, not this partition, so
        #: scores merge correctly across partitions.
        self.total_corpus_size = total_corpus_size
        #: term -> idf under the corpus-wide document frequencies
        #: ``PartitionMap`` gives every partition at build time.  Without
        #: them (None) each computes its own and scores are not
        #: comparable at collation.
        self.global_idf: "Dict[str, float] | None" = None
        #: the shared term ids and idfs ``PartitionMap`` hands in before
        #: the build; without one (None) the build derives its own from
        #: the documents
        self.vocabulary: "Vocabulary | None" = None
        #: documents and terms with at least one posting
        self.n_documents = 0
        self.n_terms = 0
        # the vocabulary the build used, and the postings: doc ids and
        # term frequencies, each in one array grouped by term id, of
        # the narrowest typecode the data fits
        self._ids: Dict[str, int] = {}
        self._idf = array("d")
        self._offsets = array("H", [0])
        self._doc_ids = array("H")
        self._frequencies = array("B")
        #: frequency -> tf weight ``1.0 + log(frequency)``, taken once
        #: per distinct frequency at build time (None for one no
        #: posting has): the only thing ranking wants from a frequency
        self._weight_of: List["float | None"] = []

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
        (:meth:`Corpus.rows`), by a single call.  The index keeps no url:
        a hit's url is the caller's (``Corpus.urls``), read at the edge
        by :func:`hits_from_ranked`."""
        if self.n_documents:
            raise ValueError("an index holding documents is built once")
        seen = set()
        postings: Dict[object, Tuple[List[int], List[int]]] = {}
        for doc_id, _url, terms, frequencies in rows:
            if doc_id in seen:
                raise ValueError(f"duplicate document {doc_id}")
            seen.add(doc_id)
            for term, frequency in zip(terms, frequencies):
                entry = postings.get(term)
                if entry is None:
                    entry = postings[term] = ([], [])
                entry[0].append(doc_id)
                entry[1].append(frequency)
        if names is not None:
            postings = {names[term]: entry
                        for term, entry in postings.items()}
        vocabulary = self.vocabulary
        if vocabulary is None:
            vocabulary = self._derive_vocabulary(postings)
        # pack: one list each, then one exactly sized array each
        all_doc_ids: List[int] = []
        all_frequencies: List[int] = []
        offsets = array("i", [0])
        packed = 0
        for term in vocabulary.ids:
            entry = postings.get(term)
            if entry is not None:
                all_doc_ids += entry[0]
                all_frequencies += entry[1]
                packed += 1
            offsets.append(len(all_doc_ids))
        if packed != len(postings):
            raise ValueError("a document names a term outside the "
                             "vocabulary")
        # the data picks the typecodes: 16-bit doc ids and offsets while
        # they fit (past 32 bits, OverflowError), one-byte frequencies
        # while they fit
        doc_ids = narrowest(all_doc_ids, "Hi")
        frequencies = narrowest(all_frequencies, "BH")
        weight_of: List["float | None"] = [None] * (
            max(frequencies, default=0) + 1)
        for frequency in set(frequencies):
            weight_of[frequency] = 1.0 + math.log(frequency)
        self._ids, self._idf = vocabulary
        self.n_documents = len(seen)
        self.n_terms = packed
        self._offsets = narrowest(offsets, "Hi")
        self._doc_ids = doc_ids
        self._frequencies = frequencies
        self._weight_of = weight_of
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

    # -- query ----------------------------------------------------------------

    def search(self, terms: Sequence[str], k: int = 10
               ) -> Tuple[int, Dict[int, float]]:
        """A partition's whole answer to a query: ``(scanned, scores)``.

        ``scanned`` counts a repeated term each time it is named (it
        drives the latency model); ``scores`` maps doc id -> tf-idf
        score, each distinct term with a non-zero idf scored once, and
        is not ordered: :func:`collate` ranks.  A partition with more
        than ``k`` candidates keeps its k best by ``(-score, doc_id)``,
        the cut the collated top k never reaches past."""
        if k <= 0:
            raise ValueError("k must be positive")
        ids = self._ids
        idf = self._idf
        offsets = self._offsets
        doc_ids = self._doc_ids
        frequencies = self._frequencies
        weight_of = self._weight_of
        scanned = 0
        # distinct terms in the order given, never set order: float
        # addition does not associate, so with three or more terms an
        # order that varies with PYTHONHASHSEED would vary the scores
        seen: Dict[int, None] = {}
        scores: Dict[int, float] = {}
        get = scores.get
        for term in terms:
            term_id = ids.get(term)
            if term_id is None:
                continue
            start = offsets[term_id]
            end = offsets[term_id + 1]
            scanned += end - start
            if term_id in seen:
                continue
            seen[term_id] = None
            term_idf = idf[term_id]
            if term_idf != 0.0:
                for doc_id, frequency in zip(doc_ids[start:end],
                                             frequencies[start:end]):
                    scores[doc_id] = (get(doc_id, 0.0)
                                      + weight_of[frequency] * term_idf)
        if len(scores) > k:
            best = best_first(scores, k)
            scores = dict(zip(best, map(scores.__getitem__, best)))
        return scanned, scores

    def rank(self, terms: Sequence[str], k: int) -> List[Ranked]:
        """The k best ``(-score, doc_id)`` pairs by tf-idf, ascending:
        best score first, ties broken by doc id."""
        return collate([self.search(terms, k)[1]], k)


def collate(answers: Iterable[Mapping[int, float]],
            k: int = 10) -> List[Ranked]:
    """Collate the partitions' score maps into the global top k, as
    ``(-score, doc_id)`` pairs, ascending.

    This is the front end's aggregation step ("collects search results
    from a number of database partitions and collates the results"),
    and the one place a query's answer is ordered.  Scores are
    comparable because every partition uses the global N in its idf,
    and a document lives in one partition, so the merged map loses
    nothing and tuple order is the whole ranking.
    """
    merged: Dict[int, float] = {}
    for answer in answers:
        merged.update(answer)
    best = best_first(merged, k)
    # (-score, doc_id) pairs for the k kept, zipped in C
    return list(zip(map(neg, map(merged.__getitem__, best)), best))


def best_first(scores: Dict[int, float], k: int) -> List[int]:
    """The doc ids of the ``k`` best ``scores``, in the order of their
    ``(-score, doc_id)`` pairs: best score first, ties to the lower
    doc id.

    Sorted as ``sorted(zip(map(neg, scores.values()), scores))[:k]``
    would, but on float keys instead of tuples: the ids ascending, then
    a stable sort by score, descending, keeps equal scores in id order
    (a score is never NaN).  Neither sort makes a pair or a frame.
    """
    ids = sorted(scores)
    ids.sort(key=scores.__getitem__, reverse=True)
    del ids[k:]
    return ids


def hits_from_ranked(ranked: Iterable[Ranked],
                     urls: Mapping[int, str]) -> List[SearchHit]:
    """The result objects for ranked pairs, in their order."""
    return [SearchHit(doc_id, urls[doc_id], -negated)
            for negated, doc_id in ranked]
