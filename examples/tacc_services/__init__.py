"""Services built on TACC (Section 5.1), the worker SDK (Section 5.4)
and Unix-pipeline composition: user code on ``repro.tacc``'s public API.

"One of our goals was to make the system easily extensible at the TACC
and Service layers by making it easy to create workers and chain them
together."  The paper lists five services prototyped on TranSend; each
is an ordinary :class:`~repro.tacc.worker.Transformer` or
:class:`~repro.tacc.worker.Aggregator`, registrable with any
:class:`~repro.core.fabric.SNSFabric` and therefore inheriting
"scalability, fault tolerance, and high availability from the SNS
layer":

* ``keyword_filter`` — "about 10 lines of Perl": mark up keywords per a
  user-supplied regular expression;
* ``metasearch`` — collate top results from several search engines into
  one page ("3 pages of Perl ... roughly 2.5 hours");
* ``culture_page`` — the Bay Area Culture Page: layout-independent
  date/event scraping with BASE approximate answers (10-20 % spurious
  results are fine);
* ``rewebber`` — encryption/decryption workers for anonymous
  publishing (implemented in one week on the TACC architecture);
* ``thinclient`` — simplified markup and scaled images "spoon-fed" to a
  PalmPilot-class browser.

``sdk`` is the conformance bench §5.4 says the authors "plan to
develop", and ``pipeline`` chains workers by type name through a
:class:`~repro.tacc.registry.WorkerRegistry`.  None of this is part of
the system: no experiment, campaign or benchmark runs it, which is the
role the paper gives it — services and tools written *on* the TACC
layer.  The scripts beside this package import it as ``tacc_services``
(``python examples/quickstart.py`` puts ``examples/`` on the path).
"""
