"""Reliable, connection-oriented channels (the simulated TCP).

Long-lived control connections — a distiller's registration with the
manager, a front end's connection to a cache node — are modelled as
:class:`Channel` objects carrying two directed message streams.  Unlike
multicast datagrams, channel messages are never dropped; instead the
channel can *break*, and both ends find out.  Broken connections are one
of the paper's failure-detection mechanisms ("if the distiller crashes
before de-registering itself, the manager detects the broken connection",
Section 3.1.3); the other is timeouts, which callers implement with
``TimedWait(env, endpoint.recv(), t)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.kernel import PENDING, Environment, Event, Queue
from repro.sim.network import Network

#: Default connection setup + teardown cost, from the Harvest measurement
#: in Section 4.4 ("TCP connection and tear-down overhead is attributed to
#: 15 ms of this service time").
TCP_SETUP_S = 0.015


class ChannelClosed(Exception):
    """The peer closed the connection or crashed."""


class Endpoint:
    """One end of a channel: send to the peer, receive from the peer."""

    def __init__(self, channel: "Channel", name: str) -> None:
        self.channel = channel
        self.name = name
        self._inbox: Queue = channel.env.queue()
        self._waiters: Deque[Event] = deque()
        self.peer: Optional["Endpoint"] = None  # set by Channel
        # earliest time the next message may arrive: keeps the stream
        # FIFO even when the fault model jitters individual deliveries
        # (TCP delays, but never reorders)
        self._next_arrival_at = 0.0

    def send(self, message: Any, size_bytes: int = 256) -> None:
        """Queue ``message`` for delivery to the peer after the SAN delay.

        Raises :class:`ChannelClosed` if the connection is broken.
        """
        if not self.channel.open:
            raise ChannelClosed(self.channel.describe())
        partitions = self.channel.network.partitions
        if partitions is not None and not partitions.reachable(
                self.name, self.peer.name):
            # The segment is blackholed at the partitioned switch: the
            # connection stays "open" (neither side learns anything),
            # and the receiver's silence-based failure detectors — load
            # report expiry, dispatch timeouts — take over, exactly the
            # ambiguity a real partition creates.
            partitions.channel_blocked += 1
            return
        delay = self.channel.network.transfer_delay(size_bytes)
        faults = self.channel.network.faults
        if faults is not None:
            # Reliable connections never lose messages under the lossy-SAN
            # fault model; loss surfaces as retransmission delay instead
            # (plus any imposed delivery jitter), and delivery stays FIFO.
            delay += faults.channel_penalty()
            now = self.channel.env.now
            arrival = max(now + delay, self._next_arrival_at)
            self._next_arrival_at = arrival
            delay = arrival - now
        # One scheduled callback per message instead of a whole delivery
        # process (initializer + timeout + process event): channel traffic
        # is a large share of all kernel events in a cluster run.
        self.channel.env.schedule_call(delay, self._deliver, message)

    def _deliver(self, event: Event) -> None:
        if not self.channel.open:
            return  # lost in flight when the connection broke
        message = event._value
        peer = self.peer
        assert peer is not None
        waiters = peer._waiters
        while waiters:
            waiter = waiters.popleft()
            if waiter._value is not PENDING or not waiter.callbacks:
                continue
            waiter.succeed(message)
            return
        peer._inbox.put_nowait(message)

    def recv(self) -> Event:
        """Event for the next message; fails with :class:`ChannelClosed`
        when the connection breaks (after any already-delivered messages
        are drained)."""
        event = Event(self.channel.env)
        if self._inbox.length:
            event.succeed(self._inbox.get_nowait())
        elif not self.channel.open:
            event.fail(ChannelClosed(self.channel.describe()))
        else:
            self._waiters.append(event)
        return event

    def _break(self) -> None:
        for waiter in self._waiters:
            # Skip waiters whose process was interrupted (no callbacks
            # remain): failing an unobserved event would surface the
            # ChannelClosed as an unhandled simulation error.
            if not waiter.triggered and waiter.callbacks:
                waiter.fail(ChannelClosed(self.channel.describe()))
        self._waiters.clear()


class Channel:
    """A reliable duplex connection between two named parties."""

    def __init__(self, env: Environment, network: Network,
                 a_name: str, b_name: str) -> None:
        self.env = env
        self.network = network
        self.open = True
        self.a = Endpoint(self, a_name)
        self.b = Endpoint(self, b_name)
        self.a.peer = self.b
        self.b.peer = self.a

    def describe(self) -> str:
        return f"{self.a.name}<->{self.b.name}"

    def close(self) -> None:
        """Break the connection: pending and future receives on both ends
        fail, in-flight messages are lost."""
        if not self.open:
            return
        self.open = False
        self.a._break()
        self.b._break()

    @staticmethod
    def connect(env: Environment, network: Network, a_name: str,
                b_name: str, setup_s: float = TCP_SETUP_S):
        """Process generator: pay connection setup, return a Channel.

        Usage::

            channel = yield from Channel.connect(env, net, "fe0", "mgr")
        """
        yield env.timeout(setup_s)
        return Channel(env, network, a_name, b_name)
