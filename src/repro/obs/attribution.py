"""Critical-path extraction and latency attribution over span trees.

This is the machine-checked version of the paper's Figure 7 / the
TranSend end-to-end study: instead of eyeballing a scatter plot, every
sampled request's end-to-end latency is decomposed *exactly* into
category components (queueing / service / network / cache / origin /
client / other) and the per-category stats are aggregated into one
report.

The decomposition is an interval sweep: within the root span's
interval, each instant is attributed to the **deepest** span covering
it (a worker-service span inside a dispatch span inside the front end's
service span wins over all three ancestors); instants covered only by
the root fall into ``other``.  Because the sweep partitions the root
interval, the components sum to the measured end-to-end latency by
construction — the acceptance criterion ("within 1%") holds with
equality up to float rounding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import LatencyStats
from repro.obs.trace import (
    CACHE,
    CLIENT,
    NETWORK,
    ORIGIN,
    OTHER,
    QUEUEING,
    SERVICE,
    Span,
)

#: report ordering for category breakdowns.
CATEGORIES: Tuple[str, ...] = (
    QUEUEING, SERVICE, NETWORK, CACHE, ORIGIN, CLIENT, OTHER)

_EPS = 1e-12


def find_root(spans: Sequence[Span]) -> Optional[Span]:
    """The trace's root span (first finished parentless span)."""
    for span in spans:
        if span.parent_id is None and span.finished:
            return span
    return None


def _children_map(spans: Sequence[Span]) -> Dict[Optional[int],
                                                 List[Span]]:
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        if span.finished:
            children.setdefault(span.parent_id, []).append(span)
    return children


def _depths(spans: Sequence[Span]) -> Dict[int, int]:
    by_id = {span.span_id: span for span in spans}
    depths: Dict[int, int] = {}

    def depth(span: Span) -> int:
        if span.span_id in depths:
            return depths[span.span_id]
        if span.parent_id is None or span.parent_id not in by_id:
            depths[span.span_id] = 0
        else:
            depths[span.span_id] = 1 + depth(by_id[span.parent_id])
        return depths[span.span_id]

    for span in spans:
        depth(span)
    return depths


def attribute_trace(spans: Sequence[Span]) -> Dict[str, float]:
    """Decompose one trace's end-to-end latency by span category.

    Returns ``{category: seconds}`` whose values sum to the root span's
    duration exactly (up to float rounding).  Unfinished spans are
    ignored; an unfinished or missing root yields an empty dict.
    """
    root = find_root(spans)
    if root is None or root.end is None:
        return {}
    finished = [span for span in spans if span.finished]
    depths = _depths(finished)
    # sweep boundaries: every span edge clipped to the root interval
    cuts = {root.start, root.end}
    for span in finished:
        cuts.add(min(max(span.start, root.start), root.end))
        cuts.add(min(max(span.end, root.start), root.end))
    boundaries = sorted(cuts)
    components: Dict[str, float] = {}
    for left, right in zip(boundaries, boundaries[1:]):
        if right - left <= _EPS:
            continue
        midpoint = (left + right) / 2.0
        # deepest covering span wins; ties break toward the later,
        # higher-id span for determinism
        best = root
        best_key = (-1, -1.0, -1)
        for span in finished:
            if span.start - _EPS <= midpoint <= span.end + _EPS:
                key = (depths[span.span_id], span.start, span.span_id)
                if key > best_key:
                    best_key = key
                    best = span
        category = best.category if best is not root else OTHER
        components[category] = components.get(category, 0.0) + \
            (right - left)
    return components


def critical_path(spans: Sequence[Span]) -> List[Tuple[Span, float,
                                                       float]]:
    """The chain of span segments that determined the root's end time.

    Walks backward from the root's end: at each cursor position the
    latest-ending child that finished at or before the cursor takes
    over; gaps between children are the parent's own (self) time.
    Returns ``[(span, seg_start, seg_end), ...]`` ordered by time.
    """
    root = find_root(spans)
    if root is None:
        return []
    children = _children_map(spans)
    segments: List[Tuple[Span, float, float]] = []

    def walk(span: Span, cursor: float) -> None:
        # zero-duration children carry no critical-path time, and
        # keeping them would stall the cursor (infinite hand-off loop)
        kids = [child for child in children.get(span.span_id, [])
                if child.end is not None
                and child.end > child.start + _EPS
                and child.end > span.start + _EPS]
        while cursor > span.start + _EPS:
            eligible = [child for child in kids
                        if child.end <= cursor + _EPS]
            if not eligible:
                segments.append((span, span.start, cursor))
                return
            handoff = max(eligible,
                          key=lambda child: (child.end, child.span_id))
            if handoff.end < cursor - _EPS:
                segments.append((span, handoff.end, cursor))
            walk(handoff, min(cursor, handoff.end))
            cursor = max(span.start, handoff.start)
            kids = [child for child in kids
                    if child.end <= cursor + _EPS]
        # cursor reached span.start: nothing more to attribute here

    walk(root, root.end)
    segments.reverse()
    return segments


def render_span_tree(spans: Sequence[Span],
                     clock_origin: Optional[float] = None) -> str:
    """ASCII rendering of one trace's span tree (for reports)."""
    root = find_root(spans)
    if root is None:
        unfinished = [span for span in spans if span.parent_id is None]
        if not unfinished:
            return "(empty trace)"
        root = unfinished[0]
    origin = root.start if clock_origin is None else clock_origin
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: (span.start, span.span_id))
    lines: List[str] = []

    def emit(span: Span, indent: int) -> None:
        if span.end is None:
            timing = f"{span.start - origin:8.4f}s ..unfinished"
        else:
            timing = (f"{span.start - origin:8.4f}s "
                      f"+{span.duration * 1000.0:9.3f}ms")
        note = ""
        if span.annotations:
            note = "  " + ", ".join(
                f"{key}={value}" for key, value
                in sorted(span.annotations.items()))
        lines.append(f"{timing}  {'  ' * indent}{span.name} "
                     f"[{span.category}] @{span.component}{note}")
        for child in children.get(span.span_id, []):
            emit(child, indent + 1)

    emit(root, 0)
    return "\n".join(lines)


class AttributionReport:
    """Aggregated latency attribution over many sampled traces."""

    def __init__(self) -> None:
        self.n_traces = 0
        self.end_to_end = LatencyStats()
        self.by_category: Dict[str, LatencyStats] = {}
        #: worst |sum(components) - end_to_end| / end_to_end seen.
        self.worst_residual = 0.0
        #: (end_to_end_s, trace_id, components) for the slowest traces.
        self._slowest: List[Tuple[float, str, Dict[str, float]]] = []

    def add_trace(self, trace_id: str, spans: Sequence[Span]) -> bool:
        """Fold one finished trace in; returns False if it had no
        usable root."""
        components = attribute_trace(spans)
        root = find_root(spans)
        if root is None or not components:
            return False
        total = root.duration
        self.n_traces += 1
        self.end_to_end.add(total)
        for category, seconds in components.items():
            self.by_category.setdefault(
                category, LatencyStats()).add(seconds)
        if total > 0:
            residual = abs(sum(components.values()) - total) / total
            self.worst_residual = max(self.worst_residual, residual)
        self._slowest.append((total, trace_id, components))
        self._slowest.sort(key=lambda row: -row[0])
        del self._slowest[8:]
        return True

    def mean_components(self) -> Dict[str, float]:
        """Mean seconds per category, scaled by how often it appears
        (absent categories count as zero for the mean)."""
        if not self.n_traces:
            return {}
        return {
            category: stats.total / self.n_traces
            for category, stats in self.by_category.items()
        }

    def render(self) -> str:
        if not self.n_traces:
            return "latency attribution: no sampled traces"
        lines = [
            f"latency attribution over {self.n_traces} sampled "
            f"request(s)",
            f"  end-to-end  p50 {self.end_to_end.p50 * 1000:9.1f}ms   "
            f"p95 {self.end_to_end.p95 * 1000:9.1f}ms   "
            f"p99 {self.end_to_end.p99 * 1000:9.1f}ms",
        ]
        means = self.mean_components()
        total_mean = self.end_to_end.mean or 1.0
        for category in CATEGORIES:
            if category not in means:
                continue
            stats = self.by_category[category]
            share = means[category] / total_mean
            lines.append(
                f"  {category:<10}  mean {means[category] * 1000:9.1f}ms"
                f"  ({share:6.1%} of e2e)   "
                f"p95 {stats.p95 * 1000:9.1f}ms")
        lines.append(
            f"  components sum to e2e within "
            f"{max(self.worst_residual, 0.0):.2%} "
            f"(worst sampled request)")
        if self._slowest:
            total, trace_id, components = self._slowest[0]
            top = sorted(components.items(),
                         key=lambda item: -item[1])[:3]
            breakdown = ", ".join(
                f"{category} {seconds * 1000:.1f}ms"
                for category, seconds in top)
            lines.append(
                f"  slowest     {trace_id}: {total * 1000:.1f}ms "
                f"({breakdown})")
        return "\n".join(lines)


def build_attribution_report(tracers) -> AttributionReport:
    """One report over the finished traces of one or many tracers."""
    report = AttributionReport()
    try:
        iter(tracers)
    except TypeError:
        tracers = [tracers]
    for tracer in tracers:
        for trace_id, spans in sorted(tracer.finished_traces().items()):
            report.add_trace(trace_id, spans)
    return report
