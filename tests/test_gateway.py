import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from examgraph.errors import (
    AuthError, GatewayTimeout, InvalidParams, MalformedResponse, RateLimited)
from examgraph.gateway import (
    MAX_RESPONSE_BYTES,
    CompletionRequest,
    ProviderConfig,
    complete,
    mock_complete,
)


class StubHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, body dict or str); last entry repeats
    requests_seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization")})
        idx = min(len(type(self).requests_seen) - 1, len(self.script) - 1)
        status, payload = self.script[idx]
        if payload == "sleep":
            time.sleep(1.0)
            payload = {"choices": []}
        drip = payload == "drip"
        if drip:
            payload = ok_body("dripped")
        data = (payload if isinstance(payload, str)
                else json.dumps(payload)).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if not drip:
            self.wfile.write(data)
            return
        try:  # one byte every 0.1 s, until the client hangs up
            for byte in data:
                self.wfile.write(bytes([byte]))
                time.sleep(0.1)
        except OSError:
            pass

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    StubHandler.requests_seen = []
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def provider(server, retries=3):
    return ProviderConfig(
        endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        model="test-model",
        auth_env="EXAMGRAPH_TEST_TOKEN",
        retries=retries,
        backoff_base=0.01,
    )


def ok_body(text):
    return {"choices": [{"message": {"content": text}}]}


def request(system="You are a test.", user="Say hi."):
    return CompletionRequest(system_prompt=system, user_prompt=user, timeout=5.0)


def test_complete_passthrough_and_wire_shape(stub_server, monkeypatch):
    monkeypatch.setenv("EXAMGRAPH_TEST_TOKEN", "sekrit")
    StubHandler.script = [(200, ok_body("fixed text"))]
    text = complete(provider(stub_server), request())
    assert text == "fixed text"
    seen = StubHandler.requests_seen[0]
    assert seen["auth"] == "Bearer sekrit"
    assert seen["body"]["model"] == "test-model"
    assert seen["body"]["messages"][0]["role"] == "system"
    assert seen["body"]["messages"][1]["role"] == "user"
    assert seen["body"]["temperature"] == 0.0


def test_auth_error_no_retry(stub_server):
    StubHandler.script = [(401, {"error": "nope"})]
    with pytest.raises(AuthError):
        complete(provider(stub_server), request())
    assert len(StubHandler.requests_seen) == 1


def test_forbidden_is_auth_error_without_retry(stub_server):
    StubHandler.script = [(403, {"error": "nope"})]
    with pytest.raises(AuthError):
        complete(provider(stub_server), request())
    assert len(StubHandler.requests_seen) == 1


def test_not_found_is_malformed_response_without_retry(stub_server):
    StubHandler.script = [(404, {"error": "no such route"})]
    with pytest.raises(MalformedResponse, match="unexpected status 404"):
        complete(provider(stub_server), request())
    assert len(StubHandler.requests_seen) == 1


def test_connection_refused_is_gateway_timeout(stub_server):
    config = provider(stub_server, retries=1)
    stub_server.shutdown()
    stub_server.server_close()  # nothing listens on the port any more
    with pytest.raises(GatewayTimeout, match="transport error"):
        complete(config, request())
    assert StubHandler.requests_seen == []


class RedirectHandler(BaseHTTPRequestHandler):
    """Answers every POST with a 302 to ``location``; a GET, the redirected
    request, records its Authorization header and gets a completion."""
    location = ""
    auth_seen = []

    def do_POST(self):
        self.send_response(302)
        self.send_header("Location", type(self).location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_GET(self):
        type(self).auth_seen.append(self.headers.get("Authorization"))
        data = json.dumps(ok_body("redirected")).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_redirect_does_not_carry_the_token(monkeypatch):
    monkeypatch.setenv("EXAMGRAPH_TEST_TOKEN", "sekrit")
    origin = HTTPServer(("127.0.0.1", 0), RedirectHandler)
    target = HTTPServer(("127.0.0.1", 0), RedirectHandler)
    RedirectHandler.location = f"http://127.0.0.1:{target.server_address[1]}/moved"
    RedirectHandler.auth_seen = []
    threads = [threading.Thread(target=server.serve_forever, daemon=True)
               for server in (origin, target)]
    for thread in threads:
        thread.start()
    try:
        assert complete(provider(origin), request()) == "redirected"
        assert RedirectHandler.auth_seen == [None]
    finally:
        for server in (origin, target):
            server.shutdown()
            server.server_close()


def test_retry_on_5xx_then_success(stub_server):
    StubHandler.script = [(500, {}), (500, {}), (200, ok_body("third time"))]
    assert complete(provider(stub_server, retries=3), request()) == "third time"
    assert len(StubHandler.requests_seen) == 3


def test_rate_limited_after_retries(stub_server):
    StubHandler.script = [(429, {})]
    with pytest.raises(RateLimited):
        complete(provider(stub_server, retries=2), request())
    assert len(StubHandler.requests_seen) == 3  # initial + 2 retries


def test_malformed_response_body(stub_server):
    StubHandler.script = [(200, "this is not json")]
    with pytest.raises(MalformedResponse):
        complete(provider(stub_server, retries=0), request())
    StubHandler.requests_seen = []
    StubHandler.script = [(200, {"nothing": "here"})]
    with pytest.raises(MalformedResponse):
        complete(provider(stub_server, retries=0), request())


def test_body_with_byte_order_mark_is_json(stub_server):
    StubHandler.script = [(200, "\ufeff" + json.dumps(ok_body("bom")))]
    assert complete(provider(stub_server, retries=0), request()) == "bom"


def test_body_encoding_utf16_accepted_invalid_utf8_malformed():
    from examgraph import gateway

    with pytest.raises(MalformedResponse, match="not JSON"):
        gateway._extract_choice(b'{"choices": "\xff"}')
    assert gateway._extract_choice(
        json.dumps(ok_body("wide")).encode("utf-16")) == "wide"


def test_timeout_raises_after_retries(stub_server):
    StubHandler.script = [(200, "sleep")]
    config = provider(stub_server, retries=1)
    tiny = CompletionRequest("sys", "user", timeout=0.2)
    started = time.monotonic()
    with pytest.raises(GatewayTimeout):
        complete(config, tiny)
    assert time.monotonic() - started < 5


def test_dripped_body_ends_by_the_deadline(stub_server):
    StubHandler.script = [(200, "drip")]
    started = time.monotonic()
    with pytest.raises(GatewayTimeout):
        complete(provider(stub_server, retries=3),
                 CompletionRequest("sys", "user", timeout=0.5))
    assert time.monotonic() - started < 0.5 + 0.3
    assert len(StubHandler.requests_seen) == 1  # no time was left to retry


def test_oversized_body_is_malformed_without_retry(stub_server):
    StubHandler.script = [(200, "x" * (MAX_RESPONSE_BYTES + 1))]
    started = time.monotonic()
    with pytest.raises(MalformedResponse, match="over"):
        complete(provider(stub_server, retries=3),
                 CompletionRequest("sys", "user", timeout=0.5))
    assert time.monotonic() - started < 0.5 + 0.3
    assert len(StubHandler.requests_seen) == 1


def test_server_errors_are_retried_until_the_deadline(stub_server):
    StubHandler.script = [(500, {})]
    started = time.monotonic()
    with pytest.raises(GatewayTimeout, match="no reply within 0.5s") as info:
        complete(provider(stub_server, retries=100),
                 CompletionRequest("sys", "user", timeout=0.5))
    assert time.monotonic() - started < 0.5 + 0.3
    assert isinstance(info.value.__cause__, MalformedResponse)
    assert 1 < len(StubHandler.requests_seen) < 101


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest("", "user")
    with pytest.raises(ValueError):
        CompletionRequest("sys", "user", timeout=0)
    with pytest.raises(ValueError):
        ProviderConfig(endpoint="ftp://nope", model="m")


@pytest.mark.parametrize("make", [
    lambda: CompletionRequest("sys", "user", timeout=float("nan")),
    lambda: CompletionRequest("sys", "user", timeout=True),
    lambda: CompletionRequest("sys", "user", timeout=-1),
    lambda: CompletionRequest("", "user"),
    lambda: CompletionRequest("sys", ""),
    lambda: ProviderConfig(endpoint="ftp://x", model="m"),
], ids=["timeout-nan", "timeout-true", "timeout-negative", "empty-system", "empty-user",
        "ftp-endpoint"])
def test_a_bad_request_or_provider_value_is_invalid_params(make):
    with pytest.raises(InvalidParams) as exc_info:
        make()
    assert exc_info.value.code == "invalid_params"


# --- the deterministic mock ---

def test_mock_identical_for_same_inputs():
    req = request("anything", "something else")
    assert mock_complete(7, req) == mock_complete(7, req)


def test_mock_extraction_shape():
    from examgraph.ingestion import EXTRACTION_SYSTEM_PROMPT

    req = CompletionRequest(EXTRACTION_SYSTEM_PROMPT, "A harms B.")
    reply = json.loads(mock_complete(0, req))
    assert reply["triples"] == [["a", "harms", "b"]]
    assert reply["concepts"] == {}


def test_mock_extraction_gives_the_rule_extractors_triples():
    from examgraph.ingestion import EXTRACTION_SYSTEM_PROMPT, RuleExtractor

    text = ("The oak supports the elm! Pollution harms the river. No verb here? "
            "The fjäll needs the \"heather\".\nCO2 traps heat; wetlands filter water.")
    reply = json.loads(mock_complete(3, CompletionRequest(EXTRACTION_SYSTEM_PROMPT, text)))
    rule = RuleExtractor({}).extract(text)
    assert len(rule.triples) >= 3
    assert reply == {"triples": [list(t) for t in rule.triples], "concepts": {}}


def test_mock_generation_shape_and_seed_variation():
    from examgraph.generation import GENERATION_SYSTEM_PROMPT

    user = "Facts:\noak outgrows pine\nbirch shades moss\nfern needs shade\n"
    replies = [json.loads(mock_complete(seed,
                                        CompletionRequest(GENERATION_SYSTEM_PROMPT, user)))
               for seed in range(8)]
    orderings = set()
    for reply in replies:
        assert isinstance(reply["stem"], str) and reply["stem"]
        assert len(reply["options"]) == 4
        assert len(set(reply["options"])) == 4
        assert reply["options"][reply["answer_index"]] == "oak"
        orderings.add(tuple(reply["options"]))
    assert len(orderings) > 1  # different seeds shuffle differently


def test_mock_generation_ignores_prompt_scaffolding():
    from examgraph.generation import GENERATION_SYSTEM_PROMPT

    prompt = ("Facts:\noak outgrows pine\nbirch shades moss\n"
              "Concept: canopy tree\nChapter: ch 2\nCognitive level: Apply\n"
              "Attempt: 0\nWrite one question.")
    reply = json.loads(mock_complete(4, CompletionRequest(
        GENERATION_SYSTEM_PROMPT, prompt)))
    assert reply["options"][reply["answer_index"]] == "oak"
    joined = " ".join(reply["options"])
    assert "Concept:" not in joined and "question" not in joined


def test_mock_other_prompts_deterministic_ack():
    one = mock_complete(1, request("plain system", "plain user"))
    two = mock_complete(2, request("plain system", "plain user"))
    assert one.startswith("ok-") and two.startswith("ok-")
    assert one != two
