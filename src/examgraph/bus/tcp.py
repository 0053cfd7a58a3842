"""TCP transport: the bus process runs a hub; remote agents connect as
clients, announce a name plus subscription patterns, then exchange frames.

Discovery is connect-and-announce: the first frame on a connection must be
topic ``system/announce`` with payload ``{"name": ..., "subscriptions":
[...]}``. The hub replies on the same topic with ``{"ok": true/false}``.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import weakref

from ..checks import strings
from ..errors import (
    BadPattern,
    DuplicateName,
    ExamGraphError,
    FrameTooLarge,
    MalformedFrame,
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
        except queue.Full:
            logger.warning("dropping frame to %s: outbox full", self.peer)

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
            try:
                self.bus.publish("system/errors", {
                    "error_code": error.code, "message": str(error),
                    "dropped_topic": message.topic,
                }, sender="bus", correlation_id=message.correlation_id)
            except ExamGraphError:
                pass  # the bus has closed
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
                    self._handle_frame(conn, message)
        except (MalformedFrame, FrameTooLarge) as exc:
            self._send_error(conn, exc.code, str(exc))
            conn.close(flush=True)
        except OSError:
            pass
        finally:
            conn.close()
            with self._lock:
                if conn in self._connections:
                    self._connections.remove(conn)

    def _send_error(self, conn: _Connection, code: str, text: str) -> None:
        conn.send_message(Message(topic="system/errors", correlation_id="",
                                  sender="bus", seq=0,
                                  payload={"error_code": code, "message": text}))

    def _handle_frame(self, conn: _Connection, message: Message) -> None:
        if conn.name is None:
            self._handle_announce(conn, message)
            return
        if message.sender != conn.name:
            self._send_error(conn, "bad_sender",
                             f"frames must carry sender {conn.name!r}")
            return
        try:
            self.bus.publish(message.topic, message.payload,
                             sender=message.sender,
                             correlation_id=message.correlation_id)
        except ExamGraphError as exc:
            self._send_error(conn, exc.code, str(exc))

    def _handle_announce(self, conn: _Connection, message: Message) -> None:
        if message.topic != ANNOUNCE_TOPIC:
            self._send_error(conn, "protocol_error",
                             "first frame must announce the agent")
            conn.close(flush=True)
            return
        payload = message.payload if isinstance(message.payload, dict) else {}
        name = payload.get("name")
        patterns = payload.get("subscriptions", [])
        if not isinstance(name, str) or not name:
            self._send_error(conn, "protocol_error", "announce needs a name")
            conn.close(flush=True)
            return
        try:
            for pattern in strings(patterns, "subscriptions", BadPattern):
                validate_topic(pattern, allow_wildcard=True)
            self.bus.claim_name(name)
        except (BadPattern, DuplicateName) as exc:
            conn.send_message(Message(
                topic=ANNOUNCE_TOPIC, correlation_id=message.correlation_id,
                sender="bus", seq=0,
                payload={"ok": False, "error_code": exc.code, "message": str(exc)}))
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
        self._inbox = queue.SimpleQueue()
        self._reader = FrameReader()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._alive = True
        self._send(Message(topic=ANNOUNCE_TOPIC, correlation_id="",
                           sender=name, seq=0,
                           payload={"name": name,
                                    "subscriptions": list(subscriptions or [])}))
        ack, frames = None, self._frames()
        for message in frames:  # frames published once subscribed can lead the ack
            if message.topic == ANNOUNCE_TOPIC:
                ack = message
                break
            self._inbox.put(message)
        if ack is None:
            self.close()
            raise MalformedFrame("hub did not acknowledge announce")
        if not ack.payload.get("ok"):
            code = ack.payload.get("error_code", "protocol_error")
            self.close()
            if code == "duplicate_name":
                raise DuplicateName(ack.payload.get("message", name))
            raise MalformedFrame(ack.payload.get("message", "announce rejected"))
        self._sock.settimeout(None)
        self._thread = threading.Thread(target=self._recv_loop, args=(frames,),
                                        name=f"tcp-client-{name}", daemon=True)
        self._thread.start()

    def _send(self, message: Message) -> None:
        self._sock.sendall(encode_frame(message))

    def _frames(self):
        """Frames off the socket until it closes, fails or the client closes."""
        buffer = bytearray(RECV_BYTES)
        view = memoryview(buffer)
        try:
            while self._alive and (size := self._sock.recv_into(buffer)):
                yield from self._reader.feed(view[:size])
        except (OSError, ExamGraphError):
            pass

    def _recv_loop(self, frames) -> None:
        try:
            for message in frames:
                self._inbox.put(message)
        finally:
            self._inbox.put(None)

    def publish(self, topic: str, payload, correlation_id: str = "") -> None:
        validate_topic(topic, allow_wildcard=False)
        # the hub numbers every frame it publishes, so the client sends seq 0
        self._send(Message(topic=topic, correlation_id=correlation_id,
                           sender=self.name, seq=0, payload=payload))

    def get(self, timeout: float | None = None) -> Message | None:
        """Next received frame; None when the connection has closed.
        Raises queue.Empty on timeout."""
        return self._inbox.get(timeout=timeout)

    def close(self) -> None:
        self._alive = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
