"""The Section 5.1 extension services, composed.

Shows why the paper calls TACC workers "a powerful building block":
metasearch over a real HotBot backend plus a second engine, the Bay
Area Culture Page's approximate-answer date scraping, and an
onion-style rewebber chain — all plain workers that any SNS fabric can
spawn and balance.

Run:  python examples/extension_services.py
"""

from repro.hotbot.service import HotBot, HotBotConfig
from repro.tacc.content import MIME_HTML, Content
from repro.tacc.worker import TACCRequest

from tacc_services.culture_page import CulturePageAggregator
from tacc_services.metasearch import (
    MetasearchAggregator,
    render_engine_results,
)
from tacc_services.rewebber import (
    DecryptWorker,
    EncryptWorker,
    rewebber_keypair,
)


def metasearch_demo() -> None:
    print("=== metasearch ('3 pages of Perl in roughly 2.5 hours') ===")
    hotbot = HotBot(config=HotBotConfig(n_workers=4, n_docs=800),
                    seed=11)
    result = hotbot.run_until(hotbot.submit(["w7", "w21"]))
    hotbot_page = render_engine_results(
        "hotbot", [(hit.url, f"page {hit.doc_id}")
                   for hit in result.hits])
    other_page = render_engine_results(
        "altavista-like", [
            ("http://crawl.example/page13", "page 13"),
            ("http://other.example/a", "something else"),
        ])
    merged = MetasearchAggregator().run(TACCRequest(
        inputs=[hotbot_page, other_page],
        params={"query": "w7 w21", "max_results": 8}))
    print(merged.data.decode())


def culture_page_demo() -> None:
    print("\n=== Bay Area Culture Page (approximate answers) ===")
    sources = [
        Content("http://opera.example/season.html", MIME_HTML,
                b"<html><body><p>La Boheme opens October 14.</p>"
                b"<p>Rigoletto returns Nov 2.</p></body></html>"),
        Content("http://clubs.example/listings.html", MIME_HTML,
                b"<html><body>Jazz night every week; big show 10/30."
                b" Our uptime was 3/4 last month.</body></html>"),
    ]
    calendar = CulturePageAggregator().run(TACCRequest(
        inputs=sources,
        profile={"calendar_start": (10, 1), "calendar_end": (11, 15)}))
    print(calendar.data.decode())
    print(f"({calendar.metadata['events']} events; the spurious '3/4' "
          "extraction is the documented 10-20% noise users ignore)")


def rewebber_demo() -> None:
    print("\n=== anonymous rewebber (onion chain) ===")
    _, inner = rewebber_keypair("exit-server")
    _, outer = rewebber_keypair("entry-server")
    manifesto = Content("rewebber://hidden/doc.html", MIME_HTML,
                        b"<html><body>published anonymously</body>"
                        b"</html>")
    sealed = EncryptWorker().run(TACCRequest(
        inputs=[manifesto], profile={"rewebber_key": inner}))
    sealed = EncryptWorker().run(TACCRequest(
        inputs=[sealed], profile={"rewebber_key": outer}))
    print(f"double-sealed: {sealed.size} bytes of ciphertext")
    opened = DecryptWorker().run(TACCRequest(
        inputs=[sealed], profile={"rewebber_key": outer}))
    opened = DecryptWorker().run(TACCRequest(
        inputs=[opened], profile={"rewebber_key": inner}))
    print(f"after the chain peels both layers: {opened.data.decode()}")


def main() -> None:
    metasearch_demo()
    culture_page_demo()
    rewebber_demo()


if __name__ == "__main__":
    main()
