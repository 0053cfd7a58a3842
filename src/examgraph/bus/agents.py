"""Agent harness: a named handler with its own worker thread, fed by one or
more bus subscriptions. The worker calls ``handler(message)`` and publishes
what it returns under the agent's name; an agent keeps any state in its
handler's closure. Handlers run single-threaded with respect to their
agent; distinct agents run concurrently. Handler exceptions are reported on
``system/errors`` and never kill the worker."""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .core import Message, MessageBus

logger = logging.getLogger(__name__)

_STOP = object()


@dataclass
class Outgoing:
    """One message an agent wants published. A None correlation_id inherits
    the incoming message's correlation id (request/reply pairing)."""

    topic: str
    payload: Any
    correlation_id: str | None = None


Handler = Callable[[Message], Iterable[Outgoing] | None]


@dataclass
class AgentDescriptor:
    name: str
    subscriptions: list[str]
    handler: Handler


class AgentHandle:
    def __init__(self, bus: MessageBus, descriptor: AgentDescriptor):
        self.bus = bus
        self.descriptor = descriptor
        self.name = descriptor.name
        self._inbox = bus.new_queue()
        self._subscriptions = []
        self._thread = threading.Thread(target=self._run,
                                        name=f"agent-{self.name}", daemon=True)
        self._stopped = False

    def _start(self) -> None:
        for pattern in self.descriptor.subscriptions:
            self._subscriptions.append(
                self.bus.subscribe(self.name, pattern, shared_queue=self._inbox))
        self._thread.start()

    def _run(self) -> None:
        while True:
            value = self._inbox.get()
            if value is _STOP:
                break
            if not isinstance(value, Message):
                continue  # subscription-close sentinel
            self._dispatch(value)

    def _dispatch(self, message: Message) -> None:
        try:
            outgoing = self.descriptor.handler(message) or ()
            for out in outgoing:
                correlation = (out.correlation_id if out.correlation_id is not None
                               else message.correlation_id)
                self.bus.publish(out.topic, out.payload, sender=self.name,
                                 correlation_id=correlation)
        except Exception as exc:
            logger.exception("agent %s failed handling %s", self.name, message.topic)
            self.bus.report(exc, sender=self.name, correlation_id=message.correlation_id,
                            agent=self.name, topic=message.topic)

    def stop(self) -> None:
        """Detach from the bus, drain messages already queued, then join."""
        if self._stopped:
            return
        self._stopped = True
        for sub in self._subscriptions:
            sub.close()
        self._inbox.put(_STOP)
        self._thread.join(timeout=10)
        self.bus.release_name(self.name)


def spawn_agent(bus: MessageBus, descriptor: AgentDescriptor) -> AgentHandle:
    """Claim the agent's name, subscribe it, and start its worker thread.
    Raises DuplicateName when the name is already live on this bus."""
    bus.claim_name(descriptor.name)
    try:
        handle = AgentHandle(bus, descriptor)
        handle._start()
    except Exception:
        bus.release_name(descriptor.name)
        raise
    return handle
