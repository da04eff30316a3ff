"""Synthetic Web corpus for the search engine.

Stands in for HotBot's 54-million-page crawl: documents are bags of
Zipf-distributed vocabulary terms, so posting-list lengths, score
distributions, and top-k behaviour look like text retrieval rather than
uniform noise.  Everything derives from the seed — the same corpus can
be rebuilt identically on every "node".
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Iterable, Iterator, List, Tuple

from repro.domains import check_args, count
from repro.sim.rng import RandomStreams, Stream


class Document:
    """One indexed page: id, url, and its term-frequency vector.

    The vector is two columns: term names (the corpus's shared strings)
    and ``array('H')`` counts.  A :class:`Corpus` keeps no documents;
    it makes one from its own columns when asked.
    """

    __slots__ = ("doc_id", "url", "term_names", "frequencies")

    def __init__(self, doc_id: int, url: str,
                 terms: Iterable[Tuple[str, int]]) -> None:
        pairs = list(terms)  # (term, frequency), sorted
        self.doc_id = doc_id
        self.url = url
        self.term_names = tuple([term for term, _ in pairs])
        self.frequencies = array("H", [freq for _, freq in pairs])

    @classmethod
    def from_columns(cls, doc_id: int, url: str,
                     term_names: Tuple[str, ...],
                     frequencies: array) -> "Document":
        """The document whose vector is already in columns."""
        document = cls.__new__(cls)
        document.doc_id, document.url = doc_id, url
        document.term_names, document.frequencies = term_names, frequencies
        return document

    @property
    def terms(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(zip(self.term_names, self.frequencies))

    def tf(self, term: str) -> int:
        return dict(zip(self.term_names, self.frequencies)).get(term, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Document) and (
            (self.doc_id, self.url, self.term_names, self.frequencies)
            == (other.doc_id, other.url, other.term_names,
                other.frequencies))

    def __hash__(self) -> int:
        return hash((self.doc_id, self.url, self.term_names))


#: the Zipf skew of the terms users query with
QUERY_ZIPF_ALPHA = 1.05
#: terms in the vocabulary: a rank column is an ``array('H')``, so at
#: most 65536
VOCABULARY_SIZE = 2000
#: a document's mean length in terms (lognormal; a frequency column
#: counts to 65535)
MEAN_LENGTH = 80
#: the Zipf skew of the terms documents are written with
TERM_ZIPF_ALPHA = 1.05


class Corpus:
    """A deterministic collection of synthetic documents, held as one
    compressed sparse row.

    Document ``d``'s term vector is ``[offsets[d], offsets[d + 1])`` of
    two ``array('H')`` columns: ``ranks`` (each term's vocabulary rank,
    in the order of the term names, as a :class:`Document` lists them)
    and ``frequencies``.  An index build and the document frequencies
    read the columns; a :class:`Document` is made on demand
    (:meth:`document`, iteration) for the callers that want one.
    """

    #: argument domains
    DOMAINS = {"n_docs": count(1)}
    #: read by the query drivers, which draw terms by rank
    vocabulary_size = VOCABULARY_SIZE

    def __init__(self, n_docs: int = 2000, seed: int = 1997) -> None:
        check_args(self.DOMAINS, n_docs=n_docs)
        self.n_docs = n_docs
        self.seed = seed
        #: rank -> term; a corpus names ~80 terms per document, so the
        #: strings are made once and not once per occurrence
        self.term_names = [f"w{rank}" for rank in range(VOCABULARY_SIZE)]
        #: doc id -> url, made once and shared with every index and the
        #: front end's result pages
        self.urls = [f"http://crawl.example/page{doc_id}"
                     for doc_id in range(n_docs)]
        self.ranks = array("H")
        self.frequencies = array("H")
        self.offsets = array("i", [0])
        # a document's terms go in name order; sorting each document's
        # ranks by their place in that order sorts ints, not strings
        by_name = sorted(range(VOCABULARY_SIZE),
                         key=self.term_names.__getitem__)
        place = [0] * VOCABULARY_SIZE
        for position, rank in enumerate(by_name):
            place[rank] = position
        rng = RandomStreams(seed).stream("corpus")
        for _ in range(n_docs):
            length = max(5, int(rng.lognormal_mean(MEAN_LENGTH, 0.6)))
            # the same stream positions as `length` zipf_rank() calls
            counts = Counter(map(place.__getitem__, rng.zipf_rank_batch(
                VOCABULARY_SIZE, TERM_ZIPF_ALPHA, length)))
            places = sorted(counts)
            self.ranks.extend(map(by_name.__getitem__, places))
            self.frequencies.extend(map(counts.__getitem__, places))
            self.offsets.append(len(self.ranks))

    def document(self, doc_id: int) -> Document:
        """Document ``doc_id``, made from its rows of the columns."""
        if not 0 <= doc_id < self.n_docs:
            raise IndexError(f"no document {doc_id}")
        start, end = self.offsets[doc_id], self.offsets[doc_id + 1]
        return Document.from_columns(
            doc_id, self.urls[doc_id],
            tuple(map(self.term_names.__getitem__, self.ranks[start:end])),
            self.frequencies[start:end])

    def rows(self, doc_ids: Iterable[int]
             ) -> Iterator[Tuple[int, str, array, array]]:
        """``(doc_id, url, ranks, frequencies)`` of each of ``doc_ids``:
        what an index build reads, sliced from the columns."""
        urls, offsets = self.urls, self.offsets
        ranks, frequencies = self.ranks, self.frequencies
        for doc_id in doc_ids:
            start, end = offsets[doc_id], offsets[doc_id + 1]
            yield (doc_id, urls[doc_id], ranks[start:end],
                   frequencies[start:end])

    def __len__(self) -> int:
        return self.n_docs

    def __iter__(self) -> Iterator[Document]:
        return map(self.document, range(self.n_docs))

    def vocabulary_sample(self, rng: Stream, n: int) -> List[str]:
        """Query terms drawn with the same skew users exhibit."""
        return [self.term_names[rank] for rank in
                rng.zipf_rank_batch(self.vocabulary_size, QUERY_ZIPF_ALPHA,
                                    n)]
