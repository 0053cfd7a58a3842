"""TCP transport: the bus process runs a hub; remote agents connect as
clients, announce a name plus subscription patterns, then exchange frames.

Discovery is connect-and-announce: the first frame on a connection must be
topic ``system/announce`` with payload ``{"name": ..., "subscriptions":
[...]}``. The hub replies on the same topic with ``{"ok": true, "name":
...}``, or refuses with ``{"ok": false}`` and an error report and closes
the connection.
"""

from __future__ import annotations

import logging
import queue
import selectors
import socket
import threading
import time
import weakref

from ..checks import strings
from ..errors import (
    BadPattern,
    BadSender,
    DuplicateName,
    ExamGraphError,
    FrameTooLarge,
    MalformedFrame,
    ProtocolError,
    QueueOverflow,
    error_report,
)
from .codec import FrameReader, encode_frame
from .core import Message, MessageBus, validate_topic

logger = logging.getLogger(__name__)

ANNOUNCE_TOPIC = "system/announce"

RECV_BYTES = 64 * 1024  # one reused receive buffer per socket

_MISSING = object()


class _Connection:
    def __init__(self, server: "TcpBusServer", sock: socket.socket, peer):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.name: str | None = None
        self.outbox = server.bus.new_queue()
        self.subscriptions = []
        self.alive = True

    def send_message(self, message: Message) -> None:
        try:
            self.outbox.put_nowait(message)
        except queue.Full:  # reported as the bus reports its own deliveries
            subscriber = self.name or "%s:%s" % self.peer
            self.server.bus.report(QueueOverflow(f"outbox of {subscriber!r} is full"),
                                   sender="bus", subscriber=subscriber,
                                   dropped_topic=message.topic)

    def close(self, flush: bool = False) -> None:
        """Tear down the connection. With ``flush`` the writer thread sends
        queued frames (e.g. an announce rejection) before the socket dies."""
        if not self.alive:
            return
        self.alive = False
        for sub in self.subscriptions:
            sub.close()
        if self.name is not None:
            self.server.bus.release_name(self.name)
            self.name = None
        self.outbox.put(None)  # never waits; writer closes the socket once drained
        if not flush:
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class TcpBusServer:
    """Hub exposing an in-process bus over TCP."""

    def __init__(self, bus: MessageBus, host: str = "127.0.0.1", port: int = 0):
        self.bus = bus
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._connections: list[_Connection] = []
        self._lock = threading.Lock()
        self._running = False
        self._accept_thread: threading.Thread | None = None
        # frame of each message in a writer's hands, by id(message): the
        # first writer to send a message encodes it for all (None when it
        # cannot be encoded), and the entry goes when the message does
        self._frames: dict[int, bytes | None] = {}
        self._frames_lock = threading.Lock()

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self._requested_port))
            listener.listen(16)
        except OSError:  # e.g. the port is in use
            listener.close()
            raise
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-bus-accept", daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                break
            # send small frames at once, not after the peer's delayed ACK (Nagle)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(self, sock, peer)
            with self._lock:
                self._connections.append(conn)
            threading.Thread(target=self._read_loop, args=(conn,),
                             name=f"tcp-bus-read-{peer}", daemon=True).start()
            threading.Thread(target=self._write_loop, args=(conn,),
                             name=f"tcp-bus-write-{peer}", daemon=True).start()

    def _write_loop(self, conn: _Connection) -> None:
        while True:
            message = conn.outbox.get()
            if message is None:
                break
            if not isinstance(message, Message):
                continue  # subscription-close sentinel
            frame = self._frame(message)
            del message  # an idle writer keeps no message, nor its entry
            if frame is None:
                continue
            try:
                conn.sock.sendall(frame)
            except OSError:
                break
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.sock.close()

    def _frame(self, message: Message) -> bytes | None:
        """The frame of ``message``, encoded once for every writer; None for
        a message that cannot be encoded, which the first writer to try
        reports once on ``system/errors``."""
        key = id(message)
        error = None
        with self._frames_lock:
            frame = self._frames.get(key, _MISSING)
            if frame is _MISSING:
                try:
                    frame = encode_frame(message)
                except (MalformedFrame, FrameTooLarge) as exc:
                    frame, error = None, exc
                self._frames[key] = frame
                # an id is reused only after its object is gone, and the
                # finalizer has dropped the entry by then
                weakref.finalize(message, self._frames.pop, key, None)
        if error is not None:
            logger.warning("dropping unencodable %s frame: %s", message.topic, error)
            self.bus.report(error, sender="bus", correlation_id=message.correlation_id,
                            dropped_topic=message.topic)
        return frame

    def _read_loop(self, conn: _Connection) -> None:
        reader = FrameReader()
        buffer = bytearray(RECV_BYTES)
        view = memoryview(buffer)
        try:
            while conn.alive:
                size = conn.sock.recv_into(buffer)
                if not size:
                    break
                for message in reader.feed(view[:size]):
                    if not conn.alive:  # refused: the frames behind go unread
                        break
                    self._handle_frame(conn, message)
        except (MalformedFrame, FrameTooLarge) as exc:
            self._send_error(conn, exc)
            conn.close(flush=True)
        except OSError:
            pass
        finally:
            conn.close()
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    def _send_error(self, conn: _Connection, exc: ExamGraphError) -> None:
        conn.send_message(Message(topic="system/errors", correlation_id="",
                                  sender="bus", seq=0, payload=error_report(exc)))

    def _handle_frame(self, conn: _Connection, message: Message) -> None:
        if conn.name is None:
            self._handle_announce(conn, message)
            return
        try:
            if message.sender != conn.name:
                raise BadSender(f"frames must carry sender {conn.name!r}")
            self.bus.publish(message.topic, message.payload,
                             sender=message.sender,
                             correlation_id=message.correlation_id)
        except ExamGraphError as exc:
            self._send_error(conn, exc)

    def _handle_announce(self, conn: _Connection, message: Message) -> None:
        """Register the peer, or refuse it on the announce topic and close."""
        try:
            if message.topic != ANNOUNCE_TOPIC:
                raise ProtocolError("first frame must announce the agent")
            payload = message.payload if isinstance(message.payload, dict) else {}
            name = payload.get("name")
            if not isinstance(name, str) or not name:
                raise ProtocolError("announce needs a name")
            patterns = strings(payload.get("subscriptions", []), "subscriptions", BadPattern)
            for pattern in patterns:
                validate_topic(pattern, allow_wildcard=True)
            self.bus.claim_name(name)
        except ExamGraphError as exc:
            conn.send_message(Message(
                topic=ANNOUNCE_TOPIC, correlation_id=message.correlation_id,
                sender="bus", seq=0, payload=error_report(exc, ok=False)))
            conn.close(flush=True)
            return
        conn.name = name
        # subscribe first: a peer holding the acknowledgement is subscribed
        for pattern in patterns:
            conn.subscriptions.append(
                self.bus.subscribe(name, pattern, shared_queue=conn.outbox))
        conn.send_message(Message(
            topic=ANNOUNCE_TOPIC, correlation_id=message.correlation_id,
            sender="bus", seq=0, payload={"ok": True, "name": name}))

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            # on Linux only shutdown(), not close(), wakes a blocked accept()
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()


class TcpBusClient:
    """Remote peer of a hub; publishes frames and receives matching ones."""

    def __init__(self, host: str, port: int, name: str,
                 subscriptions: list[str] | None = None, timeout: float = 10.0):
        self.name = name
        self._reader = FrameReader()
        self._buffer = memoryview(bytearray(RECV_BYTES))
        self._ahead: list[Message] = []  # frames published once subscribed can lead the ack
        self._lock = threading.Lock()  # one thread reads at a time
        self._open = True
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ)
        self._send(Message(topic=ANNOUNCE_TOPIC, correlation_id="",
                           sender=name, seq=0,
                           payload={"name": name,
                                    "subscriptions": list(subscriptions or [])}))
        # reads wait by readiness; a socket timeout would bound publish's sends too
        self._sock.settimeout(None)
        deadline = time.monotonic() + timeout
        try:
            while (ack := self._read(deadline)) is not None and ack.topic != ANNOUNCE_TOPIC:
                self._ahead.append(ack)
        except queue.Empty:
            ack = None
        if ack is None:
            self.close()
            raise MalformedFrame("hub did not acknowledge announce")
        if not ack.payload.get("ok"):
            self.close()
            if ack.payload.get("error_code") == DuplicateName.code:
                raise DuplicateName(ack.payload.get("message", name))
            raise MalformedFrame(ack.payload.get("message", "announce rejected"))

    def _send(self, message: Message) -> None:
        self._sock.sendall(encode_frame(message))

    def _read(self, deadline: float | None) -> Message | None:
        """Under the read lock: the next frame, read from the socket if none is
        buffered; None once the connection has ended; queue.Empty at ``deadline``."""
        chunk = b""
        try:
            while self._open:
                if (message := next(self._reader.feed(chunk), None)) is not None:
                    return message
                wait = None if deadline is None else deadline - time.monotonic()
                if not self._selector.select(wait):
                    raise queue.Empty
                chunk = self._buffer[:self._sock.recv_into(self._buffer)]
                if not chunk:
                    break
        except (OSError, ExamGraphError):
            pass
        self._open = False
        return None

    def publish(self, topic: str, payload, correlation_id: str = "") -> None:
        validate_topic(topic, allow_wildcard=False)
        # the hub numbers every frame it publishes, so the client sends seq 0
        self._send(Message(topic=topic, correlation_id=correlation_id,
                           sender=self.name, seq=0, payload=payload))

    def get(self, timeout: float | None = None) -> Message | None:
        """Next received frame, read in the calling thread; None once the
        connection has ended, on every call. Raises queue.Empty on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._lock.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
            raise queue.Empty
        try:
            return self._ahead.pop(0) if self._ahead and self._open else self._read(deadline)
        finally:
            self._lock.release()

    def close(self) -> None:
        self._open = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with self._lock:  # the shutdown wakes a get blocked on the socket
            self._selector.close()
            self._sock.close()
