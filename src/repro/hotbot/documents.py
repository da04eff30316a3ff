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

from repro.sim.rng import RandomStreams, Stream


class Document:
    """One indexed page: id, url, and its term-frequency vector.

    The vector is two columns, which is what an index build reads:
    term names (the corpus's shared strings) and ``array('H')`` counts.
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


class Corpus:
    """A deterministic collection of synthetic documents."""

    def __init__(self, n_docs: int = 2000, vocabulary_size: int = 2000,
                 seed: int = 1997, mean_length: int = 80,
                 zipf_alpha: float = 1.05) -> None:
        if n_docs <= 0 or vocabulary_size <= 0:
            raise ValueError("corpus dimensions must be positive")
        self.n_docs = n_docs
        self.vocabulary_size = vocabulary_size
        self.seed = seed
        #: rank -> term; a corpus names ~80 terms per document, so the
        #: strings are made once and not once per occurrence
        self._term_names = [f"w{rank}" for rank in range(vocabulary_size)]
        rng = RandomStreams(seed).stream("corpus")
        self.documents: List[Document] = [
            self._make_document(rng, doc_id, mean_length, zipf_alpha)
            for doc_id in range(n_docs)
        ]

    def _make_document(self, rng: Stream, doc_id: int, mean_length: int,
                       zipf_alpha: float) -> Document:
        length = max(5, int(rng.lognormal_mean(mean_length, 0.6)))
        # the same stream positions as `length` zipf_rank() calls
        ranks = rng.zipf_rank_batch(self.vocabulary_size, zipf_alpha,
                                    length)
        counts = Counter(map(self._term_names.__getitem__, ranks))
        names = tuple(sorted(counts))
        return Document.from_columns(
            doc_id, f"http://crawl.example/page{doc_id}", names,
            array("H", map(counts.__getitem__, names)))

    def __len__(self) -> int:
        return self.n_docs

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def vocabulary_sample(self, rng: Stream, n: int,
                          alpha: float = 1.05) -> List[str]:
        """Query terms drawn with the same skew users exhibit."""
        return [self._term_names[rank] for rank in
                rng.zipf_rank_batch(self.vocabulary_size, alpha, n)]
