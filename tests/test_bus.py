import gc
import json
import queue
import random
import socket
import threading
import time

import pytest

import examgraph.bus.codec as codec_module
import examgraph.bus.tcp as tcp_module
from examgraph.bus import (
    AgentDescriptor,
    FrameReader,
    Message,
    MessageBus,
    Outgoing,
    TcpBusClient,
    TcpBusServer,
    decode_frame,
    encode_frame,
    spawn_agent,
    topic_matches,
)
from examgraph.errors import (
    BadPattern,
    BusClosed,
    DuplicateName,
    FrameTooLarge,
    MalformedFrame,
    WildcardPublish,
)


# --- topics ---

def test_wildcard_matches_exactly_one_segment():
    assert topic_matches("exam/*/request", "exam/bio/request")
    assert not topic_matches("exam/*/request", "exam/bio/v2/request")
    assert not topic_matches("exam/*/request", "exam/request")
    assert topic_matches("kg/updates", "kg/updates")
    assert not topic_matches("kg/updates", "kg/other")


def test_publish_rejects_wildcards_and_bad_patterns():
    bus = MessageBus()
    with pytest.raises(WildcardPublish):
        bus.publish("a/*", {}, sender="x")
    with pytest.raises(BadPattern):
        bus.publish("Bad Topic!", {}, sender="x")
    with pytest.raises(BadPattern):
        bus.subscribe("x", "UPPER/case")


# --- delivery semantics ---

def test_publish_with_no_subscribers_is_fine():
    bus = MessageBus()
    assert bus.publish("kg/updates", {"n": 1}, sender="a") == 0


def test_publish_counts_matching_subscribers():
    bus = MessageBus()
    for i in range(3):
        bus.subscribe(f"sub{i}", "kg/updates")
    bus.subscribe("other", "kg/other")
    assert bus.publish("kg/updates", {}, sender="a") == 3


def test_subscription_receives_and_close_stops():
    bus = MessageBus()
    sub = bus.subscribe("watcher", "exam/*")
    bus.publish("exam/bio", {"n": 1}, sender="a")
    message = sub.get(timeout=1)
    assert message.payload == {"n": 1}
    assert message.seq == 1
    sub.close()
    bus.publish("exam/bio", {"n": 2}, sender="a")
    assert sub.get(timeout=0.2) is None  # closed sentinel, nothing after


def test_overlapping_subscriptions_deliver_per_subscription():
    bus = MessageBus()
    one = bus.subscribe("agent", "exam/*")
    two = bus.subscribe("agent", "exam/bio")
    bus.publish("exam/bio", {"n": 1}, sender="a")
    assert one.get(timeout=1).payload == {"n": 1}
    assert two.get(timeout=1).payload == {"n": 1}


def test_seq_strictly_increases_per_sender_topic():
    bus = MessageBus()
    sub = bus.subscribe("w", "t/one")
    bus.publish("t/one", 1, sender="a")
    bus.publish("t/two", 2, sender="a")  # different topic, own counter
    bus.publish("t/one", 3, sender="a")
    bus.publish("t/one", 4, sender="b")  # different sender, own counter
    first = sub.get(timeout=1)
    second = sub.get(timeout=1)
    third = sub.get(timeout=1)
    assert (first.sender, first.seq) == ("a", 1)
    assert (second.sender, second.seq) == ("a", 2)
    assert (third.sender, third.seq) == ("b", 1)


def test_concurrent_fifo_per_sender_topic():
    bus = MessageBus(queue_capacity=50_000)
    subs = [bus.subscribe(f"s{i}", "load/*") for i in range(4)]
    publishers = 4
    per_publisher = 250

    def publish(idx):
        for n in range(per_publisher):
            bus.publish(f"load/{idx}", {"n": n}, sender=f"pub{idx}")

    threads = [threading.Thread(target=publish, args=(i,)) for i in range(publishers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for sub in subs:
        last_seen: dict = {}
        received = 0
        while True:
            try:
                message = sub.get(timeout=0.2)
            except queue.Empty:
                break
            if message is None:
                break
            received += 1
            key = (message.sender, message.topic)
            assert message.seq > last_seen.get(key, 0)
            last_seen[key] = message.seq
        assert received == publishers * per_publisher


def test_overflow_drops_newest_and_reports():
    bus = MessageBus(queue_capacity=5)
    slow = bus.subscribe("slow", "flood/data")
    errors = bus.subscribe("monitor", "system/errors")
    for n in range(10):
        bus.publish("flood/data", {"n": n}, sender="pub")
    got = []
    while True:
        try:
            message = slow.get(timeout=0.1)
        except queue.Empty:
            break
        got.append(message.payload["n"])
    assert got == [0, 1, 2, 3, 4]  # newest dropped
    diag = errors.get(timeout=1)
    assert diag.payload["error_code"] == "queue_overflow"
    assert diag.payload["subscriber"] == "slow"


class _LoggingQueue(queue.Queue):
    """A subscriber queue that logs (its name, item) on every put it takes."""

    def __init__(self, name, log, maxsize=0):
        super().__init__(maxsize)
        self.name = name
        self.log = log

    def _put(self, item):
        super()._put(item)
        self.log.append((self.name, item))


def test_routing_matches_a_brute_force_scan():
    """Publishing delivers what a brute-force scan of every live
    subscription in subscription order would, in that order."""
    rng = random.Random(2024)
    segments = ["a", "b", "c"]
    log = []
    bus = MessageBus()
    shared = _LoggingQueue("shared", log)  # one agent's overlapping patterns
    live, closed = [], []

    def pattern():
        return "/".join(rng.choice(segments + ["*"])
                        for _ in range(rng.randint(1, 3)))

    def subscribe(agent, pat):
        if agent == "shared":
            sub = bus.subscribe(agent, pat, shared_queue=shared)
        else:
            sub = bus.subscribe(agent, pat,
                                shared_queue=_LoggingQueue(agent, log))
        live.append(sub)

    for n in range(8):
        subscribe(rng.choice(["shared", f"agent{n}"]), pattern())
    publishes = 0
    for step in range(600):
        roll = rng.random()
        if roll < 0.15:
            subscribe(rng.choice(["shared", f"agent{step}"]), pattern())
        elif roll < 0.25 and live:
            sub = live.pop(rng.randrange(len(live)))
            sub.close()
            closed.append(sub)
        elif roll < 0.3 and closed:
            sub = rng.choice(closed)
            sub.close()  # a second close changes nothing
            subscribe(sub.agent, sub.pattern)  # re-subscribe: last in order
        else:
            topic = "/".join(rng.choice(segments)
                             for _ in range(rng.randint(1, 3)))
            expected = [sub.queue.name for sub in live
                        if topic_matches(sub.pattern, topic)]
            log.clear()
            delivered = bus.publish(topic, {"step": step}, sender="pub")
            assert [name for name, _ in log] == expected
            assert delivered == len(expected)
            assert all(message.topic == topic for _, message in log)
            publishes += 1
    assert publishes > 300
    assert any("*" in sub.pattern for sub in live)
    assert any("*" not in sub.pattern for sub in live)

    log.clear()
    bus.close()
    # each subscription still live gets its close sentinel, and only those
    assert sorted(name for name, _ in log) == sorted(sub.queue.name for sub in live)
    assert all(not sub.active for sub in live + closed)
    with pytest.raises(BusClosed):
        bus.publish("a", {}, sender="pub")


def test_overflow_reports_follow_subscription_order():
    """Two full subscribers, a wildcard one subscribed before an exact one:
    their queue_overflow reports come in subscription order."""
    bus = MessageBus(queue_capacity=1)
    wild = bus.subscribe("wild", "flood/*")
    errors = bus.subscribe("monitor", "system/errors", shared_queue=queue.Queue())
    roomy = bus.subscribe("roomy", "flood/data", shared_queue=queue.Queue())
    exact = bus.subscribe("exact", "flood/data")
    assert bus.publish("flood/data", {"n": 0}, sender="pub") == 3
    assert bus.publish("flood/data", {"n": 1}, sender="pub") == 1
    reports = [errors.get(timeout=1).payload for _ in range(2)]
    assert [(r["subscriber"], r["pattern"]) for r in reports] == \
        [("wild", "flood/*"), ("exact", "flood/data")]
    assert all(r["dropped_topic"] == "flood/data" and r["dropped_seq"] == 2
               for r in reports)
    for sub in (wild, exact):
        assert sub.get(timeout=1).payload == {"n": 0}
    assert [roomy.get(timeout=1).payload["n"] for _ in range(2)] == [0, 1]
    assert all(sub.queue.empty() for sub in (wild, exact, roomy, errors))


def test_closed_bus_rejects_publish():
    bus = MessageBus()
    bus.close()
    with pytest.raises(BusClosed):
        bus.publish("a/b", {}, sender="x")


# --- agents ---

def test_echo_agent_round_trip():
    bus = MessageBus()

    def echo(message):
        return [Outgoing("echo/reply", message.payload)]

    agent = spawn_agent(bus, AgentDescriptor("echo", ["echo/request"], echo))
    replies = bus.subscribe("caller", "echo/reply")
    bus.publish("echo/request", {"text": "hello"}, sender="caller",
                correlation_id="corr-1")
    reply = replies.get(timeout=2)
    assert reply.payload == {"text": "hello"}
    assert reply.correlation_id == "corr-1"  # inherited for request/reply
    assert reply.sender == "echo"
    agent.stop()


def test_duplicate_agent_name_rejected():
    bus = MessageBus()
    agent = spawn_agent(bus, AgentDescriptor("worker", ["a/b"], lambda m: None))
    try:
        with pytest.raises(DuplicateName):
            spawn_agent(bus, AgentDescriptor("worker", ["a/c"], lambda m: None))
    finally:
        agent.stop()


def test_stopped_agent_gets_no_further_invocations():
    bus = MessageBus()
    seen = []

    def handler(message):
        seen.append(message.payload)

    agent = spawn_agent(bus, AgentDescriptor("taker", ["work/items"], handler))
    bus.publish("work/items", 1, sender="x")
    agent.stop()  # drains the queued message first
    bus.publish("work/items", 2, sender="x")
    import time

    time.sleep(0.1)
    assert seen == [1]


def test_agent_handler_error_reported_not_fatal():
    bus = MessageBus()

    def handler(message):
        if message.payload == "boom":
            raise RuntimeError("handler exploded")
        return [Outgoing("ok/out", message.payload)]

    agent = spawn_agent(bus, AgentDescriptor("shaky", ["in/data"], handler))
    errors = bus.subscribe("mon", "system/errors")
    outs = bus.subscribe("mon2", "ok/out")
    bus.publish("in/data", "boom", sender="x")
    bus.publish("in/data", "fine", sender="x")
    assert errors.get(timeout=2).payload["agent"] == "shaky"
    assert outs.get(timeout=2).payload == "fine"
    agent.stop()


def test_agent_inbox_takes_the_bus_queue_capacity():
    """An agent's inbox is capped by its bus, not by the default capacity."""
    bus = MessageBus(queue_capacity=2)
    started, release = threading.Event(), threading.Event()
    seen = []

    def handler(message):
        seen.append(message.payload)
        started.set()
        release.wait(timeout=5)

    agent = spawn_agent(bus, AgentDescriptor("slowpoke", ["work/items"], handler))
    errors = bus.subscribe("monitor", "system/errors")
    bus.publish("work/items", 0, sender="x")
    assert started.wait(timeout=5)  # the handler holds 0 and the inbox is empty
    assert [bus.publish("work/items", n, sender="x") for n in (1, 2, 3)] == [1, 1, 0]
    report = errors.get(timeout=1).payload
    assert report["error_code"] == "queue_overflow"
    assert (report["subscriber"], report["dropped_seq"]) == ("slowpoke", 4)
    release.set()
    agent.stop()
    assert seen == [0, 1, 2]
    bus.close()


def test_agent_name_freed_after_stop():
    bus = MessageBus()
    agent = spawn_agent(bus, AgentDescriptor("temp", ["a/b"], lambda m: None))
    agent.stop()
    spawn_agent(bus, AgentDescriptor("temp", ["a/b"], lambda m: None)).stop()


# --- codec ---

def random_message(rng):
    def value(depth=0):
        kinds = ["str", "int", "float", "bool", "none", "list", "dict"]
        kind = rng.choice(kinds if depth < 2 else kinds[:5])
        if kind == "str":
            return "".join(rng.choice("abc xyzé中") for _ in range(rng.randint(0, 8)))
        if kind == "int":
            return rng.randint(-10**9, 10**9)
        if kind == "float":
            return rng.uniform(-1e6, 1e6)
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "none":
            return None
        if kind == "list":
            return [value(depth + 1) for _ in range(rng.randint(0, 4))]
        return {f"k{i}": value(depth + 1) for i in range(rng.randint(0, 4))}

    return Message(
        topic="/".join("abcdef"[rng.randrange(6)] for _ in range(rng.randint(1, 3))),
        correlation_id=f"c{rng.randint(0, 999)}",
        sender=f"agent{rng.randint(0, 9)}",
        seq=rng.randint(1, 10**6),
        payload=value(),
    )


def test_codec_round_trip_random_messages():
    rng = random.Random(424242)
    for _ in range(300):
        message = random_message(rng)
        assert decode_frame(encode_frame(message)) == message


def test_codec_canonical_sorted_keys():
    a = Message("t/x", "c", "s", 1, {"b": 1, "a": {"z": 1, "y": 2}})
    b = Message("t/x", "c", "s", 1, {"a": {"y": 2, "z": 1}, "b": 1})
    assert encode_frame(a) == encode_frame(b)
    body = encode_frame(a)[4:].decode()
    parsed = json.loads(body)
    assert list(parsed) == sorted(parsed)
    assert body.index('"a"') < body.index('"b"')


def test_codec_truncation_and_size_limit():
    message = Message("t/x", "c", "s", 1, {"data": "x" * 100})
    frame = encode_frame(message)
    with pytest.raises(MalformedFrame):
        decode_frame(frame[:3])
    with pytest.raises(MalformedFrame):
        decode_frame(frame[:-5])
    with pytest.raises(MalformedFrame):
        decode_frame(frame + b"extra")
    big = Message("t/x", "c", "s", 1, {"data": "x" * (17 * 1024 * 1024)})
    with pytest.raises(FrameTooLarge):
        encode_frame(big)


def test_frame_reader_takes_views_of_a_reused_buffer():
    """A stream split at every byte offset and fed as views of one buffer,
    overwritten after each feed, yields what a whole-stream feed does."""
    rng = random.Random(6464)
    messages = [random_message(rng) for _ in range(4)]
    stream = b"".join(encode_frame(message) for message in messages)
    assert list(FrameReader().feed(stream)) == messages
    buffer = bytearray(len(stream))
    view = memoryview(buffer)
    for cut in range(len(stream) + 1):
        reader, received = FrameReader(), []
        for piece in (stream[:cut], stream[cut:]):
            buffer[:len(piece)] = piece
            received += reader.feed(view[:len(piece)])
            buffer[:] = b"\xff" * len(buffer)
        assert received == messages, f"split at byte {cut}"


def test_codec_rejects_bad_bodies():
    with pytest.raises(MalformedFrame):
        decode_frame(b"\x00\x00\x00\x02{}")
    bad = json.dumps({"topic": "t", "correlation_id": "", "sender": "s",
                      "seq": "one", "payload": None}).encode()
    import struct

    with pytest.raises(MalformedFrame):
        decode_frame(struct.pack(">I", len(bad)) + bad)


# --- TCP transport ---

def test_tcp_announce_publish_receive():
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    local = bus.subscribe("local", "chat/room")
    client = TcpBusClient("127.0.0.1", server.port, "remote",
                          subscriptions=["chat/*"])
    try:
        client.publish("chat/room", {"text": "hi from tcp"})
        message = local.get(timeout=2)
        assert message.payload == {"text": "hi from tcp"}
        assert message.sender == "remote"

        # the client's own subscription matches what it just published
        echo = client.get(timeout=2)
        assert echo.sender == "remote"
        assert echo.payload == {"text": "hi from tcp"}

        bus.publish("chat/room", {"text": "hi back"}, sender="local")
        received = client.get(timeout=2)
        assert received.payload == {"text": "hi back"}
        assert received.sender == "local"
    finally:
        client.close()
        server.stop()
        bus.close()


def test_tcp_frame_published_during_announce_is_kept():
    """A frame published the moment the hub subscribes a peer reaches the
    hub's wire ahead of the announce acknowledgement; the client keeps it
    and returns it first."""
    bus = MessageBus()
    subscribe = bus.subscribe

    def subscribe_then_publish(agent, pattern, **kwargs):
        sub = subscribe(agent, pattern, **kwargs)
        bus.publish(pattern, {"text": "early"}, sender="local")
        return sub

    bus.subscribe = subscribe_then_publish
    server = TcpBusServer(bus)
    server.start()
    client = TcpBusClient("127.0.0.1", server.port, "remote",
                          subscriptions=["chat/room"])
    try:
        first = client.get(timeout=2)
        assert first.topic == "chat/room"
        assert first.payload == {"text": "early"}
    finally:
        client.close()
        server.stop()
        bus.close()


def test_tcp_peer_is_subscribed_once_the_client_is_constructed():
    """The acknowledgement follows the subscriptions, so a frame published
    right after the client returns reaches the peer, however slowly the hub
    subscribes it."""
    bus = MessageBus()
    subscribe = bus.subscribe

    def slow_subscribe(agent, pattern, **kwargs):
        time.sleep(0.05)
        return subscribe(agent, pattern, **kwargs)

    bus.subscribe = slow_subscribe
    server = TcpBusServer(bus)
    server.start()
    client = TcpBusClient("127.0.0.1", server.port, "remote",
                          subscriptions=["chat/room"])
    try:
        bus.publish("chat/room", {"text": "right after"}, sender="local")
        assert client.get(timeout=2).payload == {"text": "right after"}
    finally:
        client.close()
        server.stop()
        bus.close()


def test_tcp_hub_encodes_each_published_message_once(monkeypatch):
    """Every peer's writer sends the one frame the first of them encoded,
    and a frame is kept no longer than its message."""
    frames = []

    def counting_encode(message):
        frames.append(encode_frame(message))
        return frames[-1]

    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    clients = [TcpBusClient("127.0.0.1", server.port, f"peer{i}",
                            subscriptions=["chat/room"]) for i in range(3)]
    monkeypatch.setattr(tcp_module, "encode_frame", counting_encode)
    try:
        assert bus.publish("chat/room", {"text": "once"}, sender="local") == 3
        received = [client.get(timeout=2) for client in clients]
        assert len(frames) == 1
        assert [encode_frame(message) for message in received] == frames * 3

        for n in range(200):
            bus.publish("chat/room", {"n": n}, sender="local")
        for client in clients:
            assert [client.get(timeout=2).payload for _ in range(200)] == \
                [{"n": n} for n in range(200)]
        assert len(frames) == 201
        del received
        gc.collect()
        assert server._frames == {}
    finally:
        for client in clients:
            client.close()
        server.stop()
        bus.close()


def test_tcp_payload_larger_than_the_receive_buffer_round_trips():
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    local = bus.subscribe("local", "chat/room")
    client = TcpBusClient("127.0.0.1", server.port, "remote",
                          subscriptions=["chat/room"])
    # two UTF-8 bytes per character: frames of three receive buffers and more
    up = {"text": "é" * (3 * tcp_module.RECV_BYTES // 2 + 7)}
    down = {"text": "ü" * (5 * tcp_module.RECV_BYTES // 2 + 3)}
    try:
        client.publish("chat/room", up, correlation_id="up")
        assert local.get(timeout=5).payload == up
        assert client.get(timeout=5).payload == up
        bus.publish("chat/room", down, sender="local", correlation_id="down")
        received = client.get(timeout=5)
        assert (received.correlation_id, received.payload) == ("down", down)
    finally:
        client.close()
        server.stop()
        bus.close()


@pytest.mark.parametrize("code", ["malformed_frame", "frame_too_large"])
def test_tcp_hub_drops_an_unencodable_frame_and_reports_it_once(monkeypatch, code):
    """A publish the hub cannot encode reaches no peer, is reported once on
    system/errors with its correlation id, and leaves every peer connected."""
    if code == "malformed_frame":
        payload = {"bad": {1, 2}}  # a set is not JSON
    else:
        monkeypatch.setattr(codec_module, "MAX_FRAME_BYTES", 4096)
        payload = {"text": "x" * 8192}
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    errors = bus.subscribe("watch", "system/errors")
    clients = [TcpBusClient("127.0.0.1", server.port, f"peer{i}",
                            subscriptions=["chat/room", "system/errors"])
               for i in range(2)]
    try:
        assert bus.publish("chat/room", payload, sender="local",
                           correlation_id="bad-1") == 2
        bus.publish("chat/room", {"text": "after"}, sender="local")
        for client in clients:
            received = {m.topic: m for m in (client.get(timeout=2), client.get(timeout=2))}
            report = received["system/errors"]
            assert report.payload["error_code"] == code
            assert report.correlation_id == "bad-1"
            assert received["chat/room"].payload == {"text": "after"}
        report = errors.get(timeout=2)
        assert (report.payload["error_code"], report.correlation_id) == (code, "bad-1")
        with pytest.raises(queue.Empty):
            errors.get(timeout=0.3)
        clients[0].publish("chat/room", {"text": "still here"})
        for client in clients:
            assert client.get(timeout=2).payload == {"text": "still here"}
    finally:
        for client in clients:
            client.close()
        server.stop()
        bus.close()


def test_tcp_duplicate_name_rejected():
    bus = MessageBus()
    bus.claim_name("taken")
    server = TcpBusServer(bus)
    server.start()
    try:
        with pytest.raises(DuplicateName):
            TcpBusClient("127.0.0.1", server.port, "taken")
    finally:
        server.stop()
        bus.close()


def test_tcp_wildcard_publish_reported():
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    client = TcpBusClient("127.0.0.1", server.port, "remote",
                          subscriptions=["system/errors"])
    try:
        with pytest.raises(WildcardPublish):
            client.publish("a/*", {})
    finally:
        client.close()
        server.stop()
        bus.close()


def test_tcp_sockets_disable_nagle_on_both_ends():
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    client = TcpBusClient("127.0.0.1", server.port, "remote")
    try:
        # the announce was acknowledged, so the hub has accepted the peer
        (conn,) = server._connections
        for sock in (client._sock, conn.sock):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        client.close()
        server.stop()
        bus.close()


def test_tcp_server_stop_ends_its_accept_thread():
    bus = MessageBus()
    before = set(threading.enumerate())
    server = TcpBusServer(bus)
    server.start()
    accept = [t for t in threading.enumerate()
              if t not in before and t.name == "tcp-bus-accept"]
    assert len(accept) == 1
    server.stop()
    assert not accept[0].is_alive()
    bus.close()


def test_tcp_server_stops_beside_a_silent_peer():
    """A peer that announces and never reads: its writer blocks in sendall
    and its outbox fills to the cap. stop() must not wait to queue the
    writer's stop sentinel on that full outbox."""
    bus = MessageBus(queue_capacity=4)
    server = TcpBusServer(bus)
    server.start()
    errors = bus.subscribe("monitor", "system/errors")
    before = set(threading.enumerate())
    raised = []
    previous_hook = threading.excepthook
    threading.excepthook = raised.append
    stopper = threading.Thread(target=server.stop, daemon=True)
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    try:
        sock.sendall(encode_frame(Message(
            topic=tcp_module.ANNOUNCE_TOPIC, correlation_id="", sender="silent",
            seq=0, payload={"name": "silent", "subscriptions": ["flood/data"]})))
        payload = "x" * 1_000_000
        deadline = time.monotonic() + 30
        report = None
        while report is None:  # until the outbox holds 4 and drops the next
            assert time.monotonic() < deadline
            bus.publish("flood/data", payload, sender="pub")
            try:
                report = errors.get(timeout=0.02).payload
            except queue.Empty:
                pass
        assert (report["error_code"], report["subscriber"]) == ("queue_overflow", "silent")
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        for thread in [t for t in threading.enumerate()
                       if t not in before and t.name.startswith("tcp-bus-")]:
            thread.join(timeout=5)
            assert not thread.is_alive()
    finally:
        threading.excepthook = previous_hook
        sock.close()
        if stopper.ident is None:
            server.stop()
        bus.close()
    assert raised == []


def _frame_around(payload_json: str) -> bytes:
    """A frame whose payload is the given JSON text, valid in every other field."""
    body = ('{"correlation_id":"","payload":%s,"sender":"peer","seq":0,"topic":"t/x"}'
            % payload_json).encode()
    return len(body).to_bytes(4, "big") + body


# json.loads raises a bare ValueError for an int past Python's 4,300-digit
# limit and RecursionError for deep nesting; both once killed the reader
HUGE_INT_FRAME = _frame_around("1" * 5000)
DEEP_FRAME = _frame_around("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("data, code", [
    (b"\xff\xff\xff\xff", "frame_too_large"),  # declares a 4 GiB body
    (b"\x00\x00\x00\x02{]", "malformed_frame"),
    (HUGE_INT_FRAME, "malformed_frame"),
    (DEEP_FRAME, "malformed_frame"),
], ids=["too_large", "malformed", "huge_int", "deep"])
def test_tcp_bad_frame_gets_one_error_frame(data, code):
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    before = set(threading.enumerate())
    raised = []
    previous_hook = threading.excepthook
    threading.excepthook = raised.append
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(data)
            received = b""
            while chunk := sock.recv(65536):  # the hub closes after the error
                received += chunk
        readers = [t for t in threading.enumerate()
                   if t not in before and t.name.startswith("tcp-bus-")]
        for thread in readers:
            thread.join(timeout=5)
            assert not thread.is_alive()
    finally:
        threading.excepthook = previous_hook
        server.stop()
        bus.close()
    error = decode_frame(received)
    assert error.topic == "system/errors"
    assert error.payload["error_code"] == code
    assert raised == []


def test_frame_reader_yields_the_good_frames_ahead_of_a_bad_one():
    good = [Message("t/x", "", "s", seq, "good") for seq in range(2)]
    frames = FrameReader().feed(b"".join(map(encode_frame, good)) + HUGE_INT_FRAME)
    assert [next(frames), next(frames)] == good
    with pytest.raises(MalformedFrame):
        next(frames)


def test_tcp_hub_publishes_the_good_frame_ahead_of_a_bad_one():
    """The announce, a good frame and a bad one in one write: the hub
    publishes the good frame, then answers with one error frame."""
    bus = MessageBus()
    watcher = bus.subscribe("watcher", "t/*")
    server = TcpBusServer(bus)
    server.start()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(encode_frame(Message(tcp_module.ANNOUNCE_TOPIC, "a-1", "peer", 0,
                                              {"name": "peer", "subscriptions": []}))
                         + encode_frame(Message("t/x", "", "peer", 1, "good"))
                         + HUGE_INT_FRAME)
            received = b""
            while chunk := sock.recv(65536):  # the hub closes after the error
                received += chunk
        published = watcher.get(timeout=5)
    finally:
        server.stop()
        bus.close()
    assert (published.topic, published.payload) == ("t/x", "good")
    ack, error = FrameReader().feed(received)
    assert (ack.topic, ack.payload["ok"]) == (tcp_module.ANNOUNCE_TOPIC, True)
    assert (error.topic, error.payload["error_code"]) == ("system/errors", "malformed_frame")


def test_tcp_client_takes_an_ack_that_shares_a_write_with_a_hostile_frame():
    """The constructor gets the acknowledgement that arrives in one write
    with a frame the codec cannot read, and the inbox then ends."""
    listener = socket.create_server(("127.0.0.1", 0))
    ended = threading.Event()

    def fake_hub():
        conn, _ = listener.accept()
        with conn:
            reader = FrameReader()
            while not list(reader.feed(conn.recv(65536))):  # the announce
                pass
            conn.sendall(encode_frame(Message(tcp_module.ANNOUNCE_TOPIC, "", "bus", 0,
                                              {"ok": True, "name": "peer"}))
                         + HUGE_INT_FRAME)
            ended.wait(5)

    hub = threading.Thread(target=fake_hub)
    hub.start()
    try:
        client = TcpBusClient("127.0.0.1", listener.getsockname()[1], "peer", ["t/*"])
        try:
            assert client.get(timeout=5) is None
        finally:
            client.close()
            client._thread.join(timeout=5)
    finally:
        ended.set()
        hub.join(timeout=5)
        listener.close()


@pytest.mark.parametrize("data", [HUGE_INT_FRAME, DEEP_FRAME], ids=["huge_int", "deep"])
def test_tcp_client_ends_its_inbox_on_a_hostile_frame(data):
    """A fake hub acknowledges the announce, sends one good frame and, once
    the client has it, one the codec cannot read, and keeps the socket open:
    the client's inbox gives the good frame, then None, and no thread raises."""
    listener = socket.create_server(("127.0.0.1", 0))
    got_good, ended = threading.Event(), threading.Event()

    def fake_hub():
        conn, _ = listener.accept()
        with conn:
            reader = FrameReader()
            while not list(reader.feed(conn.recv(65536))):  # the announce
                pass
            conn.sendall(encode_frame(Message(tcp_module.ANNOUNCE_TOPIC, "", "bus", 0,
                                              {"ok": True, "name": "peer"}))
                         + encode_frame(Message("t/x", "", "bus", 1, "good")))
            got_good.wait(5)
            conn.sendall(data)
            ended.wait(5)

    hub = threading.Thread(target=fake_hub)
    raised = []
    previous_hook = threading.excepthook
    threading.excepthook = raised.append
    hub.start()
    try:
        client = TcpBusClient("127.0.0.1", listener.getsockname()[1], "peer", ["t/*"])
        try:
            assert client.get(timeout=5).payload == "good"
            got_good.set()
            assert client.get(timeout=5) is None
        finally:
            ended.set()
            client.close()
            client._thread.join(timeout=5)
    finally:
        got_good.set()
        ended.set()
        hub.join(timeout=5)
        listener.close()
        threading.excepthook = previous_hook
    assert raised == []


@pytest.mark.parametrize("payload, reply", [
    ({"name": "peer", "subscriptions": None}, "bad_pattern"),
    ({"name": "peer", "subscriptions": "exam"}, "bad_pattern"),
    ({"name": "peer", "subscriptions": [1]}, "bad_pattern"),
    ({"name": "peer", "subscriptions": {"exam/*": 1}}, "bad_pattern"),
    (["peer"], "protocol_error"),
], ids=["null", "string", "number", "object", "payload-list"])
def test_tcp_announce_with_malformed_payload_is_refused(payload, reply):
    """A null list killed the hub's reader thread, and a string subscribed
    the peer to its one-letter topics."""
    bus = MessageBus()
    server = TcpBusServer(bus)
    server.start()
    before = set(threading.enumerate())
    raised = []
    previous_hook = threading.excepthook
    threading.excepthook = raised.append
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(encode_frame(Message(topic=tcp_module.ANNOUNCE_TOPIC,
                                              correlation_id="a-1", sender="peer",
                                              seq=0, payload=payload)))
            received = b""
            while chunk := sock.recv(65536):  # the hub closes after refusing
                received += chunk
        for thread in [t for t in threading.enumerate()
                       if t not in before and t.name.startswith("tcp-bus-")]:
            thread.join(timeout=5)
            assert not thread.is_alive()
        bus.claim_name("peer")  # the refused peer holds no name
    finally:
        threading.excepthook = previous_hook
        server.stop()
        bus.close()
    (answer,) = FrameReader().feed(received)
    if reply == "bad_pattern":
        assert (answer.topic, answer.correlation_id) == (tcp_module.ANNOUNCE_TOPIC, "a-1")
        assert answer.payload["ok"] is False
    assert answer.payload["error_code"] == reply
    assert raised == []
