"""Extension services (Section 5.1): TACC's extensibility, demonstrated.

"One of our goals was to make the system easily extensible at the TACC
and Service layers by making it easy to create workers and chain them
together."  The paper lists five services prototyped on TranSend; all
five are implemented here as ordinary TACC workers, each registrable
with any :class:`~repro.core.fabric.SNSFabric` and therefore inheriting
"scalability, fault tolerance, and high availability from the SNS
layer":

* **keyword filter** — "about 10 lines of Perl": mark up keywords per a
  user-supplied regular expression;
* **metasearch** — collate top results from several search engines into
  one page ("3 pages of Perl ... roughly 2.5 hours");
* **Bay Area Culture Page** — layout-independent date/event scraping
  with BASE approximate answers (10-20 % spurious results are fine);
* **anonymous rewebber** — encryption/decryption workers for anonymous
  publishing (implemented in one week on the TACC architecture);
* **thin-client support** — simplified markup and scaled images
  "spoon-fed" to a PalmPilot-class browser.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "keyword_filter": ("KeywordFilter",),
    "metasearch": ("MetasearchAggregator", "render_engine_results"),
    "culture_page": ("CulturePageAggregator",),
    "rewebber": ("DecryptWorker", "EncryptWorker", "rewebber_keypair"),
    "thinclient": ("ThinClientSimplifier",),
})

__all__ = [
    "CulturePageAggregator",
    "DecryptWorker",
    "EncryptWorker",
    "KeywordFilter",
    "MetasearchAggregator",
    "ThinClientSimplifier",
    "render_engine_results",
    "rewebber_keypair",
]
