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
from repro.hotbot.index import InvertedIndex, Vocabulary, idf_table
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
        #: each partition's documents, in corpus order.  The assignment
        #: is static, so they are grouped here once: building an index
        #: (at boot and at every fast restart) and sizing a partition
        #: never rescan the corpus.
        self._members: List[List[Document]] = [
            [] for _ in range(self.n_partitions)]
        #: corpus-wide document frequencies, shared with every
        #: partition so per-partition scores are comparable at collation
        self.global_df: Dict[str, int] = {}
        partition_ids = list(range(self.n_partitions))
        df = self.global_df
        for document in corpus:
            partition = rng.weighted_choice(partition_ids, self.weights)
            self.assignment[document.doc_id] = partition
            self._members[partition].append(document)
            for term in document.term_names:
                df[term] = df.get(term, 0) + 1
        #: term -> idf under ``global_df``, written here and nowhere else
        self.global_idf = idf_table(len(corpus), df)
        #: the same terms numbered, with their idfs by number: what every
        #: index this map builds groups its postings by and reads idf from
        self.vocabulary = Vocabulary.of(self.global_idf)

    def documents_in(self, partition: int) -> List[Document]:
        return list(self._members[partition])

    def partition_sizes(self) -> List[int]:
        return [len(members) for members in self._members]

    def build_index(self, partition: int) -> InvertedIndex:
        """The partition's local index (global statistics for mergeable
        scores)."""
        index = InvertedIndex(total_corpus_size=len(self.corpus))
        # shared: the constructor and the build would derive them again
        index.global_idf = self.global_idf
        index.vocabulary = self.vocabulary
        return index.add_all(self._members[partition])

    def coverage_without(self, failed: Sequence[int]) -> float:
        """Fraction of the database still reachable when the given
        partitions are down — the 54M -> 51M arithmetic."""
        lost = sum(len(self._members[partition])
                   for partition in set(failed))
        return 1.0 - lost / len(self.corpus)
