"""HotBot: partitioned search with graceful degradation.

Builds the scaled-down Inktomi cluster (real inverted indexes over a
synthetic corpus, statically partitioned), runs queries, crashes a node
to show partial answers and fast restart, and contrasts the original
cross-mounted failure mode that kept 100% data availability.

Run:  python examples/hotbot_search.py
"""

from repro.chaos.campaign import CrashSearchNode, Faults
from repro.hotbot.service import HotBot, HotBotConfig


def show(result, label):
    print(f"\n{label}")
    print(f"  coverage {result.coverage:.1%} "
          f"({result.partitions_answered}/{result.partitions_total} "
          f"partitions{', partial' if result.partial else ''})")
    for hit in result.hits[:5]:
        print(f"  {hit.score:6.2f}  {hit.url}")


def main() -> None:
    hotbot = HotBot(config=HotBotConfig(
        n_workers=8, n_docs=2000, failure_mode="fast-restart"),
        seed=1997)
    terms = ["w12", "w40"]
    print(f"corpus: {len(hotbot.corpus)} documents over "
          f"{hotbot.config.n_workers} partitions "
          f"(sizes {hotbot.partition_map.partition_sizes()})")

    show(hotbot.run_until(hotbot.submit(terms)), "healthy cluster:")

    print("\ncrashing partition 0's node...")
    # the fault row: the node comes back 10 s later and reloads its
    # partition from the RAID disk
    Faults(hotbot).arm((CrashSearchNode(
        at=hotbot.cluster.env.now, partition=0, duration_s=10.0),))
    show(hotbot.run_until(hotbot.submit(terms)),
         "during the outage (the 54M -> 51M effect):")

    hotbot.run(until=hotbot.cluster.env.now + 15.0)
    show(hotbot.run_until(hotbot.submit(terms)),
         "after fast restart:")

    print("\n--- the original Inktomi cross-mounted design ---")
    crossmount = HotBot(config=HotBotConfig(
        n_workers=8, n_docs=2000, failure_mode="cross-mount"),
        seed=1997)
    Faults(crossmount).arm((CrashSearchNode(at=0.0, partition=2),))
    result = crossmount.run_until(crossmount.submit(terms))
    show(result, "node down, peer serving its partition from the "
                 "cross-mounted disk:")
    print(f"  served by replica: {result.served_by_replica} partition "
          f"(at {crossmount.config.cross_mount_penalty:.0f}x cost — "
          "'100% data availability with graceful degradation in "
          "performance')")

    print(f"\nACID side: {hotbot.database.requests} profile/ad-revenue "
          f"transactions, Informix utilization "
          f"{hotbot.database.utilization():.1%}")


if __name__ == "__main__":
    main()
