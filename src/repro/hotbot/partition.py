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

from array import array
from collections import Counter
from typing import List, Sequence

from repro.domains import check_args, positive
from repro.hotbot.documents import Corpus, Document
from repro.hotbot.index import InvertedIndex, Vocabulary, idf_table
from repro.sim.rng import Lottery, Stream


class PartitionMap:
    """Assignment of documents to partitions, weighted by node power."""

    #: each weight's domain (a NaN or infinite one would leave every
    #: document in one partition)
    DOMAINS = {"weights": positive()}

    def __init__(self, corpus: Corpus, weights: Sequence[float],
                 rng: Stream) -> None:
        if not weights:
            raise ValueError("weights must be non-empty")
        for weight in weights:
            check_args(self.DOMAINS, weights=weight)
        self.corpus = corpus
        self.weights = list(weights)
        self.n_partitions = len(weights)
        #: each partition's doc ids, ascending.  The assignment is
        #: static, so they are grouped here once: building an index (at
        #: boot and at every fast restart) and sizing a partition never
        #: rescan the corpus.
        self._members: List[array] = [
            array("i") for _ in range(self.n_partitions)]
        # one lottery draw per document, in corpus order
        lottery = Lottery(range(self.n_partitions), self.weights)
        for doc_id, partition in enumerate(lottery.draws(rng, len(corpus))):
            self._members[partition].append(doc_id)
        #: corpus-wide document frequencies, shared with every
        #: partition so per-partition scores are comparable at
        #: collation.  A document names a term once, so a term's count
        #: in the rank column is its document frequency; counting in
        #: column order keeps the terms in first-occurrence order.
        names = corpus.term_names
        self.global_df = {names[rank]: df
                          for rank, df in Counter(corpus.ranks).items()}
        #: term -> idf under ``global_df``, written here and nowhere else
        self.global_idf = idf_table(len(corpus), self.global_df)
        #: the same terms numbered, with their idfs by number: what every
        #: index this map builds groups its postings by and reads idf from
        self.vocabulary = Vocabulary.of(self.global_idf)

    def documents_in(self, partition: int) -> List[Document]:
        return [self.corpus.document(doc_id)
                for doc_id in self._members[partition]]

    def partition_sizes(self) -> List[int]:
        return [len(members) for members in self._members]

    def build_index(self, partition: int) -> InvertedIndex:
        """The partition's local index (global statistics for mergeable
        scores), built from its documents' rows of the corpus columns."""
        index = InvertedIndex(total_corpus_size=len(self.corpus))
        # shared: the constructor and the build would derive them again
        index.global_idf = self.global_idf
        index.vocabulary = self.vocabulary
        return index.add_rows(self.corpus.rows(self._members[partition]),
                              self.corpus.term_names)

    def coverage_without(self, failed: Sequence[int]) -> float:
        """Fraction of the database still reachable when the given
        partitions are down — the 54M -> 51M arithmetic."""
        lost = sum(len(self._members[partition])
                   for partition in set(failed))
        return 1.0 - lost / len(self.corpus)
