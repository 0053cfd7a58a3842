"""Single seam to any chat-completion HTTP service, plus a deterministic
mock so the whole pipeline (and the test suite) runs with no network.

The wire shape is the de-facto chat-completion JSON: a messages array with
system/user roles, first choice extracted from the reply.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from .checks import json_value, number, string
from .errors import AuthError, GatewayTimeout, InvalidParams, MalformedResponse, RateLimited
from .ingestion import RuleExtractor

# a chat completion of max_tokens 512 is a few KiB
MAX_RESPONSE_BYTES = 1 << 20
_CHUNK_BYTES = 1 << 16


@dataclass
class CompletionRequest:
    system_prompt: str
    user_prompt: str
    timeout: float = 30.0

    def __post_init__(self):
        if not self.system_prompt or not self.user_prompt:
            raise InvalidParams("prompts must be non-empty")
        number(self.timeout, "timeout", above=0)


@dataclass
class ProviderConfig:
    endpoint: str
    model: str
    auth_env: str = "EXAMGRAPH_API_TOKEN"
    retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if not self.endpoint.startswith(("http://", "https://")):
            raise InvalidParams(f"endpoint must be an http(s) URL, got {self.endpoint!r}")


def complete(config: ProviderConfig, request: CompletionRequest) -> str:
    """POST the request and return the first choice's message content.

    5xx, timeouts and transport faults are retried with exponential backoff
    up to ``config.retries`` attempts; 401/403 fail immediately; 429 raises
    RateLimited once retries run out; other statuses (307/308 too) fail at once.
    The whole call has one deadline, ``request.timeout``: each attempt's
    socket waits are bounded by the time left when it starts, the body is
    read in chunks with the deadline checked between them, and no backoff
    sleep starts that would end past it. A body over MAX_RESPONSE_BYTES is
    MalformedResponse, at once.
    """
    import urllib.request  # only the HTTP provider needs it
    from http.client import HTTPException
    from urllib.error import HTTPError

    data = json.dumps({
        "model": config.model,
        "messages": [
            {"role": "system", "content": request.system_prompt},
            {"role": "user", "content": request.user_prompt},
        ],
        "temperature": 0.0,
        "max_tokens": 512,
    }).encode("utf-8")
    http_request = urllib.request.Request(
        config.endpoint, data=data, method="POST",
        headers={"Content-Type": "application/json"})
    token = os.environ.get(config.auth_env, "")
    if token:  # unredirected: a redirect never carries the token on
        http_request.add_unredirected_header("Authorization", f"Bearer {token}")

    deadline = time.monotonic() + request.timeout
    last_error: Exception | None = None
    for attempt in range(config.retries + 1):
        pause = config.backoff_base * (2 ** (attempt - 1)) if attempt else 0.0
        left = deadline - time.monotonic() - pause
        if left <= 0:
            raise GatewayTimeout(f"no reply within {request.timeout}s") from last_error
        time.sleep(pause)
        try:
            with urllib.request.urlopen(http_request, timeout=left) as response:
                status, raw = response.status, _read_body(response, deadline)
        except HTTPError as exc:  # urlopen raises it for every status >= 400
            status, raw = exc.code, b""
            exc.close()
        except (OSError, HTTPException) as exc:  # URLError: socket error in .reason
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                last_error = GatewayTimeout(f"request timed out after {request.timeout}s")
            else:
                last_error = GatewayTimeout(f"transport error: {exc}")
            last_error.__cause__ = exc
            continue
        if status in (401, 403):
            raise AuthError(f"provider rejected credentials ({status})")
        if status == 429:
            last_error = RateLimited("provider rate limit (429)")
            continue
        if status >= 500:
            last_error = MalformedResponse(f"server error {status}")
            continue
        if status != 200:
            raise MalformedResponse(f"unexpected status {status}")
        return _extract_choice(raw)
    assert last_error is not None
    raise last_error


def _read_body(response, deadline: float) -> bytes:
    chunks, size = [], 0
    while time.monotonic() < deadline:
        chunk = response.read1(_CHUNK_BYTES)
        if not chunk:
            return b"".join(chunks)
        size += len(chunk)
        if size > MAX_RESPONSE_BYTES:
            raise MalformedResponse(f"response body over {MAX_RESPONSE_BYTES} bytes")
        chunks.append(chunk)
    raise TimeoutError("deadline passed while reading the body")


def _extract_choice(raw: bytes) -> str:
    data = json_value(raw, "response body", MalformedResponse)  # a BOM and UTF-16/32 are detected
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse("no choices[0].message.content in response") from exc
    return string(content, "choice content", MalformedResponse)


# --- deterministic offline mock ---

def mock_complete(seed: int, request: CompletionRequest) -> str:
    """Stand-in completion: a pure function of (seed, prompts).

    Replies with valid extraction JSON for extraction-shaped prompts and
    valid item JSON for generation-shaped prompts, so the full pipeline can
    run offline; anything else gets a short deterministic acknowledgment.
    """
    if '"triples"' in request.system_prompt:
        return _mock_extraction(request.user_prompt)
    if '"answer_index"' in request.system_prompt:
        return _mock_item(seed, request.user_prompt)
    digest = hashlib.sha256(
        f"{seed}|{request.system_prompt}|{request.user_prompt}".encode()
    ).hexdigest()
    return f"ok-{digest[:12]}"


def _mock_extraction(text: str) -> str:
    """The rule extractor's triples, with no concepts, as an extraction reply."""
    triples = [list(t) for t in RuleExtractor().extract(text).triples]
    return json.dumps({"triples": triples, "concepts": {}}, ensure_ascii=False)


def _mock_item(seed: int, prompt: str) -> str:
    entities: list[str] = []
    for line in prompt.splitlines():
        line = line.strip()
        # only plain "h r t" fact lines; skip prompt scaffolding
        if not line or ":" in line or line[-1] in ".?!":
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3 and all(parts):
            for entity in (parts[0], parts[2]):
                if entity not in entities:
                    entities.append(entity)
    if not entities:
        entities = ["the material"]
    key = entities[0]
    pool = entities[1:] + ["none of the above", "all of the above", "not applicable"]
    distractors: list[str] = []
    for candidate in pool:
        if candidate != key and candidate not in distractors:
            distractors.append(candidate)
        if len(distractors) == 3:
            break
    rng = random.Random(f"{seed}|{prompt}")
    rng.shuffle(distractors)
    options = [key, *distractors]
    answer_index = rng.randrange(4)
    options[0], options[answer_index] = options[answer_index], options[0]
    return json.dumps({
        "stem": f"Which of the following relates to {entities[0]}?",
        "options": options,
        "answer_index": answer_index,
    }, ensure_ascii=False)


def completion_fn(provider: ProviderConfig | None = None,
                  seed: int = 0) -> Callable[[str, str], str]:
    """A ``(system_prompt, user_prompt) -> text`` callable for extractors,
    generators and the llm agent: the offline mock at ``seed`` when no
    provider is given, otherwise the HTTP provider."""
    if provider is None:
        return lambda system, user: mock_complete(seed, CompletionRequest(system, user))
    return lambda system, user: complete(provider, CompletionRequest(system, user))
