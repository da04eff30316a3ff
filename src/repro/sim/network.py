"""System-area network (SAN) and access-link models.

The paper's measurements (Section 4.6) hinge on *where bandwidth runs
out*: the 100 Mb/s Ethernet into each front end saturates at ~70-87
requests per second, while the interior SAN does not saturate at all — and
on a 10 Mb/s SAN, saturation drops the (unreliable) multicast beacons and
cripples load balancing.  This module models exactly those effects.

A :class:`Link` is a fluid-flow shared pipe: each message reserves
``size / bandwidth`` seconds of pipe time behind whatever is already
queued, plus a fixed propagation latency.  A windowed utilization meter
drives both saturation detection (for Table 2's "element that saturated"
column) and the multicast drop probability (for the 10 Mb/s experiment).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.domains import at_least, between, check_args, positive
from repro.sim.kernel import Environment
from repro.sim.rng import Stream

#: Convenience: megabits/second to bytes/second.
MBPS = 1_000_000 / 8

#: Fault-model scope matching any traffic class.
ANY_SCOPE = "*"
#: Fault-model scope for reliable channel (TCP) traffic.
CHANNEL_SCOPE = "tcp"

#: Base retransmission timeout charged per lost channel segment.  A
#: reliable connection never *loses* a message under the fault model —
#: loss shows up as retransmit delay, doubling per consecutive loss
#: (classic RTO backoff).
CHANNEL_RTO_S = 0.2


class FaultWindow:
    """One time-bounded message-fault regime on a traffic scope.

    ``loss`` and ``duplicate`` are per-message probabilities; ``jitter_s``
    is the maximum uniform extra delivery delay.  Windows with
    ``end=None`` stay active until cleared.
    """

    #: the domain of each fault parameter.
    DOMAINS = {"loss": between(0, 1), "duplicate": between(0, 1),
               "jitter_s": at_least(0)}

    def __init__(self, scope: str, start: float, end: Optional[float],
                 loss: float = 0.0, duplicate: float = 0.0,
                 jitter_s: float = 0.0) -> None:
        check_args(self.DOMAINS, loss=loss, duplicate=duplicate,
                   jitter_s=jitter_s)
        if end is not None and end < start:
            raise ValueError("window ends before it starts")
        self.scope = scope
        self.start = start
        self.end = end
        self.loss = loss
        self.duplicate = duplicate
        self.jitter_s = jitter_s

    def active_at(self, now: float) -> bool:
        return self.start <= now and (self.end is None or now < self.end)

    def __repr__(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.1f}"
        return (f"<FaultWindow {self.scope} [{self.start:.1f},{end}) "
                f"loss={self.loss:.2f} dup={self.duplicate:.2f} "
                f"jitter={self.jitter_s * 1000:.0f}ms>")


class NetworkFaults:
    """The lossy-SAN fault model: scoped loss, duplication, and jitter.

    The baseline :class:`Network` drops unreliable datagrams only under
    *saturation*; this model adds the faults the paper's soft-state
    claims must survive but its testbed never produced on demand —
    independent per-message loss, duplicated delivery, and delay jitter,
    each confined to a *scope* (a multicast group name, the reliable
    channel scope :data:`CHANNEL_SCOPE`, or :data:`ANY_SCOPE`) and to a
    declared time window.  Windows are declarative: imposing one costs
    no simulation process, and messages consult the model only when it
    is installed, so a fault-free run draws no extra randomness.
    """

    def __init__(self, env: Environment, rng: Stream) -> None:
        self.env = env
        self.rng = rng
        self._windows: List[FaultWindow] = []
        # counters for chaos reports
        self.datagrams_lost = 0
        self.datagrams_duplicated = 0
        self.messages_jittered = 0
        self.channel_retransmits = 0

    # -- declaring fault regimes -------------------------------------------

    def impose(self, scope: str = ANY_SCOPE, loss: float = 0.0,
               duplicate: float = 0.0, jitter_s: float = 0.0,
               start: Optional[float] = None,
               duration_s: Optional[float] = None) -> FaultWindow:
        """Declare a fault window; defaults to starting now, forever."""
        begin = self.env.now if start is None else start
        if begin < self.env.now:
            raise ValueError(
                f"fault window start {begin} is in the past")
        end = None if duration_s is None else begin + duration_s
        window = FaultWindow(scope, begin, end, loss=loss,
                             duplicate=duplicate, jitter_s=jitter_s)
        self._windows.append(window)
        return window

    def _active(self, scope: str) -> List[FaultWindow]:
        now = self.env.now
        return [
            w for w in self._windows
            if w.active_at(now) and w.scope in (scope, ANY_SCOPE)
        ]

    # -- consulted by the network layers ------------------------------------

    def datagram_fate(self, scope: str) -> Tuple[int, float]:
        """Decide one unreliable datagram's fate: (copies, extra delay).

        0 copies means the datagram is lost; 2 means duplicated
        delivery.  Loss wins over duplication when both fire.
        """
        active = self._active(scope)
        if not active:
            return 1, 0.0
        copies = 1
        extra = 0.0
        for window in active:
            if window.loss > 0 and self.rng.random() < window.loss:
                self.datagrams_lost += 1
                return 0, 0.0
            if window.duplicate > 0 and \
                    self.rng.random() < window.duplicate:
                copies = 2
            if window.jitter_s > 0:
                extra += self.rng.uniform(0.0, window.jitter_s)
        if copies > 1:
            self.datagrams_duplicated += 1
        if extra > 0:
            self.messages_jittered += 1
        return copies, extra

    def channel_penalty(self) -> float:
        """Extra delay for one reliable-channel message.

        Losses become retransmissions (the connection hides them but
        pays RTO, doubling per consecutive loss); jitter adds directly.
        """
        active = self._active(CHANNEL_SCOPE)
        if not active:
            return 0.0
        penalty = 0.0
        for window in active:
            if window.loss > 0:
                rto = CHANNEL_RTO_S
                # cap consecutive retransmissions so loss=1.0 stalls the
                # connection rather than hanging the simulation
                for _ in range(10):
                    if self.rng.random() >= window.loss:
                        break
                    self.channel_retransmits += 1
                    penalty += rto
                    rto *= 2.0
            if window.jitter_s > 0:
                penalty += self.rng.uniform(0.0, window.jitter_s)
        if penalty > 0:
            self.messages_jittered += 1
        return penalty


class SplitWindow:
    """A time-bounded split of the SAN into isolated node groups.

    ``groups`` maps node names to group labels; nodes absent from the
    map sit in the implicit default group ``""`` (the "rest of the
    cluster").  Two nodes can talk only while they share a group under
    every active split.
    """

    def __init__(self, groups: Dict[str, str], start: float,
                 end: Optional[float]) -> None:
        if end is not None and end < start:
            raise ValueError("split ends before it starts")
        self.groups = dict(groups)
        self.start = start
        self.end = end

    def active_at(self, now: float) -> bool:
        return self.start <= now and (self.end is None or now < self.end)

    def __repr__(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.1f}"
        return (f"<SplitWindow [{self.start:.1f},{end}) "
                f"{sorted(set(self.groups.values()))} vs rest>")


class CutWindow:
    """A time-bounded one-way reachability cut: ``src`` cannot reach
    ``dst``, while the reverse direction stays up (asymmetric link
    failure — the classic gray switch fault)."""

    def __init__(self, src: str, dst: str, start: float,
                 end: Optional[float]) -> None:
        if end is not None and end < start:
            raise ValueError("cut ends before it starts")
        self.src = src
        self.dst = dst
        self.start = start
        self.end = end

    def active_at(self, now: float) -> bool:
        return self.start <= now and (self.end is None or now < self.end)

    def __repr__(self) -> str:
        end = "∞" if self.end is None else f"{self.end:.1f}"
        return (f"<CutWindow {self.src}-/->{self.dst} "
                f"[{self.start:.1f},{end})>")


class PartitionState:
    """Declarative SAN partitions: node-group splits and one-way cuts.

    The paper's testbed treated the SAN as a perfect fabric; the one
    fault class that actually breaks centralized soft state — a network
    partition that leaves both sides alive — was never modelled.  This
    object holds the partition schedule as declarative windows with
    absolute end times (no simulation processes, no randomness): the
    message layers consult :meth:`reachable` per delivery only while a
    partition object is installed, so fault-free runs pay nothing.

    Component names (``fe0``, ``worker:jpeg-distiller:3``) are resolved
    to node names through ``resolver`` (the cluster's component
    registry); unresolvable names are treated as reachable.
    """

    def __init__(self, env: Environment,
                 resolver: Optional[Callable[[str], Optional[str]]] = None
                 ) -> None:
        self.env = env
        self._resolver = resolver
        self._splits: List[SplitWindow] = []
        self._cuts: List[CutWindow] = []
        # counters for chaos reports
        self.multicast_blocked = 0
        self.channel_blocked = 0

    # -- declaring partitions ------------------------------------------------

    def split(self, groups: Dict[str, str],
              duration_s: Optional[float] = None) -> SplitWindow:
        """Split the SAN: nodes reach each other only within a group.

        Nodes absent from ``groups`` form the implicit default group.
        Starts now and lasts ``duration_s``, or until :meth:`heal`.
        """
        begin = self.env.now
        end = None if duration_s is None else begin + duration_s
        window = SplitWindow(groups, begin, end)
        self._splits.append(window)
        return window

    def one_way(self, src_node: str, dst_node: str,
                duration_s: Optional[float] = None) -> CutWindow:
        """Cut reachability from ``src_node`` to ``dst_node`` only,
        from now."""
        begin = self.env.now
        end = None if duration_s is None else begin + duration_s
        window = CutWindow(src_node, dst_node, begin, end)
        self._cuts.append(window)
        return window

    # -- consulted by the message layers -------------------------------------

    def node_reachable(self, src_node: str, dst_node: str) -> bool:
        """Can a message flow from ``src_node`` to ``dst_node`` now?"""
        if src_node == dst_node:
            return True     # local delivery never crosses the SAN
        now = self.env._now
        for window in self._splits:
            if window.active_at(now):
                groups = window.groups
                if groups.get(src_node, "") != groups.get(dst_node, ""):
                    return False
        for window in self._cuts:
            if window.active_at(now) and window.src == src_node \
                    and window.dst == dst_node:
                return False
        return True

    def reachable(self, src_component: str, dst_component: str) -> bool:
        """Component-name reachability via the installed resolver."""
        resolver = self._resolver
        if resolver is None:
            return True
        src_node = resolver(src_component)
        dst_node = resolver(dst_component)
        if src_node is None or dst_node is None:
            return True
        return self.node_reachable(src_node, dst_node)


#: a link's utilization is the byte rate over the last 5 s, kept in
#: ten 0.5 s buckets.
METER_WINDOW_S = 5.0
METER_BUCKETS = 10


class UtilizationMeter:
    """Windowed byte-rate meter over fixed-size time buckets.

    The bucket now filling is two scalars, ``_open_id`` and
    ``_open_bytes``; the closed ones, oldest first, are
    ``(bucket_id, bytes)`` pairs in ``_closed``.  `Link.reserve` is the
    one writer (once per message on every link, so the update lives
    there, not behind a call): a message in the open bucket is one
    float addition, and only a message in a new bucket calls
    :meth:`_roll`.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.window = METER_WINDOW_S
        self.bucket_width = METER_WINDOW_S / METER_BUCKETS
        self._span = METER_BUCKETS
        self._closed: Deque[Tuple[int, float]] = deque()
        #: the open bucket's id (None before the first message and once
        #: the window has passed it) and the bytes it holds
        self._open_id: Optional[int] = None
        self._open_bytes: float = 0

    def _roll(self, bucket_id: int, nbytes: float) -> None:
        """Close the open bucket and open ``bucket_id`` holding
        ``nbytes``; only a new bucket moves the horizon."""
        if self._open_id is not None:
            self._closed.append((self._open_id, self._open_bytes))
        self._open_id = bucket_id
        self._open_bytes = nbytes
        horizon = bucket_id - self._span
        closed = self._closed
        while closed and closed[0][0] < horizon:
            closed.popleft()

    def rate(self) -> float:
        """Bytes per second over the window ending now."""
        horizon = int(self.env.now / self.bucket_width) - self._span
        closed = self._closed
        while closed and closed[0][0] < horizon:
            closed.popleft()
        if self._open_id is not None and self._open_id < horizon:
            self._open_id = None
            self._open_bytes = 0
        # closed buckets oldest first, then the open one: one sum in
        # bucket order, so the same bits as a list of every bucket
        totals = [nbytes for _, nbytes in closed]
        totals.append(self._open_bytes)
        return sum(totals) / self.window


class Link:
    """A shared pipe with bandwidth, latency, and a utilization meter."""

    #: the domain of each constructor argument but the environment and
    #: the name: a NaN or infinite bandwidth or latency would make every
    #: :meth:`reserve` return a delay no timeout can wait out.
    DOMAINS = {"bandwidth_bps": positive(), "latency_s": at_least(0)}

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float,
        latency_s: float = 0.0005,
    ) -> None:
        check_args(self.DOMAINS, bandwidth_bps=bandwidth_bps,
                   latency_s=latency_s)
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self._busy_until = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0
        self._meter = UtilizationMeter(env)

    def reserve(self, size_bytes: float) -> float:
        """Reserve pipe time for a message; return its total delay.

        The delay covers queueing behind in-flight traffic, transmission,
        and propagation.  Callers ``yield env.timeout(delay)``.
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        now = self.env._now
        busy_until = self._busy_until
        start = busy_until if busy_until > now else now
        transmission = size_bytes / self.bandwidth_bps
        self._busy_until = start + transmission
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        meter = self._meter
        bucket_id = int(now / meter.bucket_width)
        if bucket_id == meter._open_id:
            meter._open_bytes += size_bytes
        else:
            meter._roll(bucket_id, size_bytes)
        return (start - now) + transmission + self.latency_s

    def utilization(self) -> float:
        """Recent offered load as a fraction of capacity (can exceed 1)."""
        return self._meter.rate() / self.bandwidth_bps

    @property
    def backlog_s(self) -> float:
        """Seconds of traffic currently queued on the pipe."""
        return max(0.0, self._busy_until - self.env.now)

    def __repr__(self) -> str:
        return (f"<Link {self.name} {self.bandwidth_bps / MBPS:.0f}Mb/s "
                f"util={self.utilization():.2f}>")


class AccessLink(Link):
    """Bandwidth into the system — e.g. the Ethernet segment feeding one
    front end, or the shared 10 Mb/s segment to the modem bank."""


#: one-way latency of the interior SAN (switched 100 Mb/s Ethernet)
SAN_LATENCY_S = 0.0005
#: the low-speed utility network for control traffic (Section 4.6)
UTILITY_BANDWIDTH_BPS = 10 * MBPS
UTILITY_LATENCY_S = 0.001
#: one-way latency of an access link into or out of the system
ACCESS_LATENCY_S = 0.001


class Network:
    """The SAN: one interior pipe plus per-endpoint access links.

    ``transfer`` computes a message delay over the interior pipe;
    :class:`~repro.sim.multicast.MulticastGroup` consults
    :meth:`multicast_drop_probability` to decide whether an unreliable
    datagram survives (the paper observed beacon loss under SAN
    saturation, Section 4.6).
    """

    #: Utilization above which unreliable datagrams start dropping, and the
    #: utilization at which nearly all drop.  Chosen so a 100 Mb/s SAN never
    #: drops under TranSend-scale control traffic while a 10 Mb/s SAN
    #: saturated by data traffic loses most beacons — the paper's observed
    #: behaviour.
    DROP_START = 0.75
    DROP_FULL = 1.25
    MAX_DROP = 0.95

    def __init__(self, env: Environment,
                 bandwidth_bps: float = 100 * MBPS) -> None:
        self.env = env
        self.san = Link(env, "SAN", bandwidth_bps, SAN_LATENCY_S)
        self.access_links: Dict[str, AccessLink] = {}
        #: optional lossy-SAN fault model; ``None`` keeps the baseline
        #: perfectly reliable SAN (and draws no randomness).
        self.faults: Optional[NetworkFaults] = None
        #: optional SAN-partition model; ``None`` keeps the baseline
        #: fully connected SAN (and costs nothing per message).
        self.partitions: Optional[PartitionState] = None
        #: Section 4.6's proposed fix: "the addition of a low-speed
        #: utility network to isolate control traffic from data traffic,
        #: allowing the system to more gracefully handle (and perhaps
        #: avoid) SAN saturation."  When present, control datagrams
        #: (beacons, load reports) ride here instead of the SAN.
        self.utility: Optional[Link] = None

    def install_faults(self, rng: Stream) -> NetworkFaults:
        """Attach (or return the existing) lossy-SAN fault model."""
        if self.faults is None:
            self.faults = NetworkFaults(self.env, rng)
        return self.faults

    def install_partitions(
        self,
        resolver: Optional[Callable[[str], Optional[str]]] = None,
    ) -> PartitionState:
        """Attach (or return the existing) SAN-partition model."""
        if self.partitions is None:
            self.partitions = PartitionState(self.env, resolver)
        elif resolver is not None:
            self.partitions._resolver = resolver
        return self.partitions

    def add_utility_network(self) -> Link:
        """Attach the low-speed utility network for control traffic."""
        if self.utility is not None:
            raise ValueError("utility network already attached")
        self.utility = Link(self.env, "utility", UTILITY_BANDWIDTH_BPS,
                            UTILITY_LATENCY_S)
        return self.utility

    def add_access_link(self, name: str, bandwidth_bps: float) -> AccessLink:
        if name in self.access_links:
            raise ValueError(f"duplicate access link {name!r}")
        link = AccessLink(self.env, name, bandwidth_bps,
                          ACCESS_LATENCY_S)
        self.access_links[name] = link
        return link

    def transfer_delay(self, size_bytes: float,
                       control: bool = False) -> float:
        """Reserve capacity for a message and return its delivery delay.

        Interior traffic crosses the SAN (traffic entering or leaving
        the system reserves its access link itself).  Control traffic
        (``control=True``) uses the utility network when one is
        attached.
        """
        if control and self.utility is not None:
            return self.utility.reserve(size_bytes)
        return self.san.reserve(size_bytes)

    def _control_link(self) -> Link:
        return self.utility if self.utility is not None else self.san

    def multicast_drop_probability(self) -> float:
        """Probability an unreliable datagram is dropped right now.

        Datagrams are control traffic: with a utility network attached,
        only *its* utilization matters — data-plane saturation no longer
        kills the beacons.
        """
        utilization = self._control_link().utilization()
        if utilization <= self.DROP_START:
            return 0.0
        span = self.DROP_FULL - self.DROP_START
        fraction = (utilization - self.DROP_START) / span
        return min(self.MAX_DROP, fraction * self.MAX_DROP)
