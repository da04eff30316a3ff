"""Table 1: main differences between TranSend and HotBot.

Rather than a hand-written table, the rows are derived from the two
*implementations*: each cell is introspected from the corresponding
object so the table stays true to the code (e.g. if HotBot's failure
mode changes, the table changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.reporting import render_table
from repro.hotbot.service import DB_CAPACITY_RPS, HotBot, HotBotConfig
from repro.transend.service import TranSend


@dataclass
class Table1Result:
    rows: List[List[str]]     # (component, TranSend, HotBot)

    def render(self) -> str:
        return render_table(
            ["Component", "TranSend", "HotBot"],
            self.rows,
            title="Table 1 — main differences between TranSend and HotBot",
        )


def run_table1() -> Table1Result:
    transend = TranSend(n_nodes=4, n_cache_nodes=2)
    hotbot = HotBot(config=HotBotConfig(n_workers=2, n_docs=100))
    rows: List[List[str]] = []

    rows.append([
        "Load balancing",
        f"dynamic, by queue lengths (lottery gamma="
        f"{transend.config.lottery_gamma:g}, hints every "
        f"{transend.config.beacon_interval_s:g}s)",
        f"static partitioning of read-only data "
        f"({hotbot.config.n_workers} partitions, every query to all)",
    ])
    rows.append([
        "Application layer",
        f"composable TACC workers: "
        f"{', '.join(transend.registry.types())}",
        "fixed search service application",
    ])
    rows.append([
        "Service layer",
        "worker dispatch logic + HTML UI (toolbar munger)",
        "dynamic result-page generation, HTML UI",
    ])
    rows.append([
        "Failure management",
        "centralized but fault-tolerant manager via process-peers",
        f"distributed to each node ({hotbot.config.failure_mode}: "
        + ("RAID + fast restart"
           if hotbot.config.failure_mode == "fast-restart"
           else "cross-mounted partitions") + ")",
    ])
    rows.append([
        "Worker placement",
        "FEs and caches bound to nodes; distillers anywhere",
        "all workers bound to their nodes (local disk partitions)",
    ])
    rows.append([
        "User profile (ACID) database",
        f"WAL key-value store with FE read caches "
        f"({type(transend.profile_store).__name__})",
        f"parallel primary/backup server at "
        f"{DB_CAPACITY_RPS:.0f} req/s "
        f"({type(hotbot.database).__name__})",
    ])
    rows.append([
        "Caching",
        f"virtual cache over {len(transend.cachesys.nodes)} nodes, "
        "pre- and post-transformation data",
        "integrated cache of recent searches (incremental delivery)",
    ])
    return Table1Result(rows)
