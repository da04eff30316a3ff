"""Unreliable IP multicast over the SAN.

The paper's SNS layer leans on IP multicast for all soft-state
distribution: the manager beacons its existence and load hints, workers
announce load, and the monitor listens to everything (Sections 3.1.2,
3.1.7).  Multicast provides the level of indirection that lets components
find each other without configuration — and because it is *unreliable*,
saturating the SAN silently drops beacons, which is exactly the failure
mode measured in Section 4.6.

A :class:`MulticastGroup` delivers a published message to every current
subscriber after the SAN transfer delay, independently dropping each copy
with the network's current drop probability.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim.kernel import Environment, Queue
from repro.sim.network import Network
from repro.sim.rng import Stream

#: messages a subscriber's mailbox holds; a copy arriving at a full
#: mailbox is dropped.
MAILBOX_CAPACITY = 1024


class Subscription:
    """A subscriber's mailbox on a multicast group."""

    def __init__(self, group: "MulticastGroup", name: str,
                 queue: Queue) -> None:
        self.group = group
        self.name = name
        self.queue = queue
        self.active = True

    def get(self):
        """Event for the next delivered message (FIFO)."""
        return self.queue.get()

    def cancel(self) -> None:
        """Stop receiving; pending messages remain readable."""
        self.active = False
        self.group._drop_subscription(self)


class MulticastGroup:
    """One multicast address (e.g. the manager's beacon channel)."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        rng: Stream,
    ) -> None:
        self.env = env
        self.network = network
        self.name = name
        self.rng = rng
        self._subscriptions: List[Subscription] = []
        self.delivered = 0
        #: copies lost to SAN saturation, a partition, the lossy-SAN
        #: fault model or a full mailbox.
        self.dropped = 0

    def subscribe(self, subscriber_name: str) -> Subscription:
        queue = self.env.queue(MAILBOX_CAPACITY)
        subscription = Subscription(self, subscriber_name, queue)
        self._subscriptions.append(subscription)
        return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def publish(self, message: Any, size_bytes: int = 256,
                sender: str = "?") -> None:
        """Fire-and-forget datagram to all current subscribers.

        Each copy independently crosses the SAN and may be dropped when the
        SAN is saturated.  Delivery is asynchronous; the publisher never
        blocks (datagram semantics).
        """
        faults = self.network.faults
        partitions = self.network.partitions
        for subscription in list(self._subscriptions):
            if partitions is not None and not partitions.reachable(
                    sender, subscription.name):
                # datagram blackholed at the partitioned switch; no
                # bandwidth charged, no randomness drawn
                self.dropped += 1
                partitions.multicast_blocked += 1
                continue
            drop_probability = self.network.multicast_drop_probability()
            if drop_probability > 0 and self.rng.random() < drop_probability:
                self.dropped += 1
                continue
            copies, extra_delay = 1, 0.0
            if faults is not None:
                # the lossy-SAN fault model: per-copy loss, duplication,
                # and delay jitter scoped to this group's name
                copies, extra_delay = faults.datagram_fate(self.name)
                if copies == 0:
                    self.dropped += 1
                    continue
            for _ in range(copies):
                delay = self.network.transfer_delay(
                    size_bytes, control=True) + extra_delay
                # one scheduled callback per copy, not a delivery process:
                # beacons and load reports dominate control-plane events
                self.env.schedule_call(
                    delay, self._deliver, (subscription, message))

    def _deliver(self, event) -> None:
        subscription, message = event._value
        if not subscription.active:
            return
        if not subscription.queue.try_put(message):
            # Mailbox overflow: a slow receiver loses datagrams, just as a
            # full socket buffer would.
            self.dropped += 1
            return
        self.delivered += 1

    @property
    def loss_rate(self) -> float:
        attempted = self.delivered + self.dropped
        return self.dropped / attempted if attempted else 0.0


class MulticastBus:
    """Registry of named multicast groups sharing one network."""

    def __init__(self, env: Environment, network: Network,
                 rng: Stream) -> None:
        self.env = env
        self.network = network
        self.rng = rng
        self._groups: Dict[str, MulticastGroup] = {}

    def group(self, name: str) -> MulticastGroup:
        if name not in self._groups:
            self._groups[name] = MulticastGroup(
                self.env, self.network, name, self.rng)
        return self._groups[name]
