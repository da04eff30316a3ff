"""Static partitioning of the search database.

"HotBot workers statically partition the search-engine database for load
balancing.  Thus each worker handles a subset of the database
proportional to its CPU power, and every query goes to all workers in
parallel" (Section 3.2).  Documents are distributed randomly ("the
database partitioning distributes documents randomly"), which is what
makes losing a partition graceful: you lose a random ~1/N of the
database, not a topical slice.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hotbot.documents import Corpus, Document
from repro.hotbot.index import InvertedIndex
from repro.sim.rng import Stream


class PartitionMap:
    """Assignment of documents to partitions, weighted by node power."""

    def __init__(self, corpus: Corpus, weights: Sequence[float],
                 rng: Stream) -> None:
        if not weights or any(weight <= 0 for weight in weights):
            raise ValueError("weights must be positive and non-empty")
        self.corpus = corpus
        self.weights = list(weights)
        self.n_partitions = len(weights)
        self.assignment: Dict[int, int] = {}
        #: documents per partition; the assignment is static, so this
        #: is counted here once and not per coverage_without() call
        self._sizes = [0] * self.n_partitions
        partition_ids = list(range(self.n_partitions))
        for document in corpus:
            partition = rng.weighted_choice(partition_ids, self.weights)
            self.assignment[document.doc_id] = partition
            self._sizes[partition] += 1

    def documents_in(self, partition: int) -> List[Document]:
        return [document for document in self.corpus
                if self.assignment[document.doc_id] == partition]

    def partition_sizes(self) -> List[int]:
        return list(self._sizes)

    def global_df(self) -> Dict[str, int]:
        """Corpus-wide document frequencies, shared with every
        partition so per-partition scores are comparable at collation."""
        if not hasattr(self, "_global_df"):
            df: Dict[str, int] = {}
            for document in self.corpus:
                for term, _ in document.terms:
                    df[term] = df.get(term, 0) + 1
            self._global_df = df
        return self._global_df

    def build_index(self, partition: int) -> InvertedIndex:
        """The partition's local index (global statistics for mergeable
        scores)."""
        index = InvertedIndex(total_corpus_size=len(self.corpus),
                              global_df=self.global_df())
        index.add_all(self.documents_in(partition))
        return index

    def coverage_without(self, failed: Sequence[int]) -> float:
        """Fraction of the database still reachable when the given
        partitions are down — the 54M -> 51M arithmetic."""
        sizes = self._sizes
        lost = sum(sizes[partition] for partition in set(failed))
        return 1.0 - lost / len(self.corpus)
