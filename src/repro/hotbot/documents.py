"""Synthetic Web corpus for the search engine.

Stands in for HotBot's 54-million-page crawl: documents are bags of
Zipf-distributed vocabulary terms, so posting-list lengths, score
distributions, and top-k behaviour look like text retrieval rather than
uniform noise.  Everything derives from the seed — the same corpus can
be rebuilt identically on every "node".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.sim.rng import RandomStreams, Stream


@dataclass(frozen=True)
class Document:
    """One indexed page: id, url, and its term-frequency vector."""

    doc_id: int
    url: str
    terms: Tuple[Tuple[str, int], ...]   # (term, frequency), sorted

    def tf(self, term: str) -> int:
        for candidate, freq in self.terms:
            if candidate == term:
                return freq
        return 0


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
        terms = tuple(sorted(counts.items()))
        return Document(
            doc_id=doc_id,
            url=f"http://crawl.example/page{doc_id}",
            terms=terms,
        )

    def __len__(self) -> int:
        return self.n_docs

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def vocabulary_sample(self, rng: Stream, n: int,
                          alpha: float = 1.05) -> List[str]:
        """Query terms drawn with the same skew users exhibit."""
        return [self._term_names[rank] for rank in
                rng.zipf_rank_batch(self.vocabulary_size, alpha, n)]
