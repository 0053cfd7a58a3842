"""In-process publish-subscribe bus.

Topics are slash-separated lowercase paths; subscription patterns may use
``*`` to match exactly one segment. Delivery is at-most-once per
subscription with a bounded per-subscriber queue (overflow drops the newest
message and reports it on ``system/errors``). Sequence numbers increase
strictly per (sender, topic), and each subscriber sees that order.

Every subscriber-side queue the program builds (a subscription's, an agent's
inbox, a TCP hub outbox) is a ``BoundedQueue`` from ``MessageBus.new_queue``:
a C ``queue.SimpleQueue`` capped at the bus's ``queue_capacity`` on
``put_nowait`` only. Close and stop sentinels go in with the uncapped
``put``, so they never wait and are never lost to the cap. A caller's
``shared_queue`` must provide ``put_nowait`` that raises ``queue.Full`` and
``get(timeout=)`` that raises ``queue.Empty``; a ``queue.Queue`` does.

Publishing scans the live subscriptions in subscription order: a pattern
without ``*`` matches when it equals the topic, and only wildcard patterns,
split once at subscribe time, are compared segment by segment. Matches are
delivered in that order. The TCP hub (``tcp.py``) encodes each published
frame once for all its peers.
"""

from __future__ import annotations

import queue
import re
import threading
from dataclasses import dataclass
from typing import Any

from ..errors import (
    BadPattern, BusClosed, DuplicateName, QueueOverflow, WildcardPublish, error_report)

_SEGMENT_RE = re.compile(r"^[a-z0-9_-]+$")

DEFAULT_QUEUE_CAPACITY = 1024


@dataclass(frozen=True)
class Message:
    topic: str
    correlation_id: str
    sender: str
    seq: int
    payload: Any  # JSON-representable

    def to_dict(self) -> dict:
        return {
            "topic": self.topic,
            "correlation_id": self.correlation_id,
            "sender": self.sender,
            "seq": self.seq,
            "payload": self.payload,
        }


def validate_topic(topic: str, allow_wildcard: bool = False) -> list[str]:
    """Split and check a topic; returns its segments."""
    if not topic or not isinstance(topic, str):
        raise BadPattern(f"topic must be a non-empty string, got {topic!r}")
    segments = topic.split("/")
    for segment in segments:
        if segment == "*":
            if not allow_wildcard:
                raise WildcardPublish(f"wildcard in published topic {topic!r}")
            continue
        if not _SEGMENT_RE.match(segment):
            raise BadPattern(f"bad topic segment {segment!r} in {topic!r}")
    return segments


def topic_matches(pattern: str, topic: str) -> bool:
    """True when the pattern covers the topic; ``*`` matches exactly one
    segment."""
    return _segments_match(pattern.split("/"), topic.split("/"))


def _segments_match(p_segments: list[str], t_segments: list[str]) -> bool:
    if len(p_segments) != len(t_segments):
        return False
    return all(p == "*" or p == t for p, t in zip(p_segments, t_segments))


_CLOSED = object()  # queue sentinel


class BoundedQueue(queue.SimpleQueue):
    """A C ``SimpleQueue`` whose ``put_nowait`` raises ``queue.Full`` once it
    holds ``maxsize`` items; ``put`` never waits and takes any number.

    The cap holds exactly for bus deliveries, which run under the bus lock.
    The check and the put are two steps, so other producers putting at the
    same time (such as a TCP hub's own replies to its peer) can each pass the
    cap by one."""

    __slots__ = ("maxsize",)

    def __init__(self, maxsize: int):
        self.maxsize = maxsize

    def put_nowait(self, item) -> None:
        if self.qsize() >= self.maxsize:
            raise queue.Full
        self.put(item)


def _put_sentinel(q) -> None:
    # A BoundedQueue ignores block=False and always takes it; a caller's full
    # queue.Queue raises Full instead of waiting, and loses the sentinel.
    try:
        q.put(_CLOSED, block=False)
    except queue.Full:
        pass


class Subscription:
    """Live stream of matching messages; close() stops delivery."""

    def __init__(self, bus: "MessageBus", agent: str, pattern: str,
                 q: BoundedQueue | queue.Queue, segments: list[str]):
        self.bus = bus
        self.agent = agent
        self.pattern = pattern
        self.queue = q
        self.active = True
        # the pattern's segments when it has a wildcard, else None
        self._segments = segments if "*" in segments else None

    def get(self, timeout: float | None = None) -> Message | None:
        """Next message, None once the subscription (or bus) is closed.
        Raises queue.Empty on timeout."""
        value = self.queue.get(timeout=timeout)
        if value is _CLOSED:
            return None
        return value

    def close(self) -> None:
        self.bus._unsubscribe(self)


class MessageBus:
    """Topic router safe for concurrent publish/subscribe from any thread."""

    def __init__(self, queue_capacity: int = DEFAULT_QUEUE_CAPACITY):
        self._lock = threading.Lock()
        self._subs: list[Subscription] = []  # live, in subscription order
        self._seq: dict[tuple[str, str], int] = {}
        self._names: set[str] = set()
        self._closed = False
        self._queue_capacity = queue_capacity

    def publish(self, topic: str, payload: Any, *, sender: str,
                correlation_id: str = "") -> int:
        """Deliver to every matching subscriber; returns how many received
        it. Publishing to zero subscribers is not an error."""
        validate_topic(topic, allow_wildcard=False)
        with self._lock:
            if self._closed:
                raise BusClosed("bus is closed")
            message = self._stamp(topic, payload, sender, correlation_id)
            delivered, overflowed = self._deliver(message)
            for sub in overflowed:
                # a report that overflows too is dropped, never reported
                self._deliver(self._stamp("system/errors", error_report(
                    QueueOverflow(f"queue of {sub.agent!r} is full"),
                    subscriber=sub.agent, pattern=sub.pattern,
                    dropped_topic=message.topic, dropped_seq=message.seq,
                ), "bus", ""))
            return delivered

    def report(self, exc: BaseException, *, sender: str, correlation_id: str = "",
               **context) -> None:
        """Publish ``exc``'s error report on ``system/errors``; a closed bus
        drops it."""
        try:
            self.publish("system/errors", error_report(exc, **context),
                         sender=sender, correlation_id=correlation_id)
        except BusClosed:
            pass

    def _stamp(self, topic: str, payload: Any, sender: str,
               correlation_id: str) -> Message:
        # under self._lock: take the next sequence number of (sender, topic)
        seq = self._seq.get((sender, topic), 0) + 1
        self._seq[(sender, topic)] = seq
        return Message(topic=topic, correlation_id=correlation_id,
                       sender=sender, seq=seq, payload=payload)

    def _deliver(self, message: Message) -> tuple[int, list[Subscription]]:
        """Under self._lock: queue the message for every matching
        subscriber, in subscription order; returns how many took it and the
        ones that were full."""
        topic = message.topic
        segments = topic.split("/")
        delivered, overflowed = 0, []
        for sub in self._subs:
            if sub._segments is None:
                if sub.pattern != topic:
                    continue
            elif not _segments_match(sub._segments, segments):
                continue
            try:
                sub.queue.put_nowait(message)
                delivered += 1
            except queue.Full:
                overflowed.append(sub)
        return delivered, overflowed

    def subscribe(self, agent: str, pattern: str, *,
                  shared_queue: BoundedQueue | queue.Queue | None = None) -> Subscription:
        """Register interest in a pattern. Overlapping subscriptions by one
        agent each receive their own copy of a matching message."""
        segments = validate_topic(pattern, allow_wildcard=True)
        q = shared_queue if shared_queue is not None else self.new_queue()
        with self._lock:
            if self._closed:
                raise BusClosed("bus is closed")
            sub = Subscription(self, agent, pattern, q, segments)
            self._subs.append(sub)
        return sub

    def new_queue(self) -> BoundedQueue:
        """An empty subscriber queue capped at this bus's queue capacity."""
        return BoundedQueue(self._queue_capacity)

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            if sub.active:  # under the lock, active means listed
                sub.active = False
                self._subs.remove(sub)
        _put_sentinel(sub.queue)

    # -- agent-name registry (bus-wide uniqueness) --

    def claim_name(self, name: str) -> None:
        with self._lock:
            if name in self._names:
                raise DuplicateName(f"agent name {name!r} already on this bus")
            self._names.add(name)

    def release_name(self, name: str) -> None:
        with self._lock:
            self._names.discard(name)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subs, self._subs = self._subs, []
            for sub in subs:
                sub.active = False
        for sub in subs:
            _put_sentinel(sub.queue)
