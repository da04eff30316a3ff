"""The inverted index as it was before it moved to typed arrays (PR 18).

Tuple postings, a `math.log` per posting scanned, a full sort through a
key function: slow and obviously right.  `InvertedIndex.rank` and
`collate` must agree with it to the last bit of every score and in
order, and `contents()` compares two indexes through their public
surface alone, so the tests never look at how either one stores its
postings.  The real index keeps no urls (the front end reads them from
`Corpus.urls`), so `contents()` compares doc ids and scores.
"""

import math


class ReferenceIndex:
    """term -> [(doc_id, frequency)], scored the long way round."""

    def __init__(self, total_corpus_size, global_df=None):
        self.total_corpus_size = total_corpus_size
        self.global_df = global_df
        self.postings = {}
        self.urls = {}

    def add(self, document):
        if document.doc_id in self.urls:
            raise ValueError(f"duplicate document {document.doc_id}")
        self.urls[document.doc_id] = document.url
        for term, frequency in document.terms:
            self.postings.setdefault(term, []).append(
                (document.doc_id, frequency))

    def add_all(self, documents):
        for document in documents:
            self.add(document)
        return self

    def remove(self, doc_id):
        if doc_id not in self.urls:
            return False
        del self.urls[doc_id]
        for term in list(self.postings):
            kept = [(d, f) for d, f in self.postings[term] if d != doc_id]
            if kept:
                self.postings[term] = kept
            else:
                del self.postings[term]
        return True

    @property
    def n_documents(self):
        return len(self.urls)

    @property
    def n_terms(self):
        return len(self.postings)

    def postings_scanned(self, terms):
        return sum(len(self.postings.get(term, ())) for term in terms)

    def idf(self, term):
        if self.global_df is not None:
            document_frequency = self.global_df.get(term, 0)
        else:
            document_frequency = len(self.postings.get(term, ()))
        if document_frequency == 0:
            return 0.0
        return math.log(1.0 + self.total_corpus_size / document_frequency)

    def query(self, terms, k=10):
        """[(doc_id, url, score)], best first, ties by doc id."""
        scores = {}
        for term in dict.fromkeys(terms):
            idf = self.idf(term)
            if idf == 0.0:
                continue
            for doc_id, frequency in self.postings.get(term, ()):
                scores[doc_id] = scores.get(doc_id, 0.0) \
                    + (1.0 + math.log(frequency)) * idf
        ranked = sorted(scores.items(),
                        key=lambda item: (-item[1], item[0]))
        return [(doc_id, self.urls[doc_id], score)
                for doc_id, score in ranked[:k]]


def reference_merge(partials, k=10):
    """Per-partition `ReferenceIndex.query` lists into the global top-k."""
    everything = [hit for partial in partials for hit in partial]
    everything.sort(key=lambda hit: (-hit[2], hit[0]))
    return everything[:k]


def as_ranked(hits):
    """Hits — reference triples or `SearchHit`s — as `rank()` pairs."""
    return [(-score, doc_id) for doc_id, _, score in hits]


def bits(hits):
    """Hits with the score spelled to the bit."""
    return [(doc_id, url, score.hex()) for doc_id, url, score in hits]


def scanned(index, terms):
    """Posting entries a query touches, a repeated term counted each
    time, as either kind of index reports it."""
    if isinstance(index, ReferenceIndex):
        return index.postings_scanned(terms)
    return index.search(terms)[0]


def ranked(index, terms, k):
    """The k best ``(-score, doc_id)`` pairs, as either kind of index
    reports them."""
    if isinstance(index, ReferenceIndex):
        return as_ranked(index.query(terms, k))
    return index.rank(terms, k)


def contents(index, vocabulary):
    """All an index (either kind) says it holds, through the public
    surface: the counts, and per term how many postings it has and
    every document that matches it, with its score to the bit."""
    everything = max(1, index.n_documents)
    return (index.n_documents, index.n_terms,
            {term: (scanned(index, [term]),
                    [(doc_id, negated.hex()) for negated, doc_id
                     in ranked(index, [term], everything)])
             for term in vocabulary})
