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

import requests

from .errors import AuthError, GatewayTimeout, MalformedResponse, RateLimited
from .textutils import naive_svo, split_sentences


@dataclass
class CompletionRequest:
    system_prompt: str
    user_prompt: str
    timeout: float = 30.0

    def __post_init__(self):
        if not self.system_prompt or not self.user_prompt:
            raise ValueError("prompts must be non-empty")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")


@dataclass
class ProviderConfig:
    endpoint: str
    model: str
    auth_env: str = "EXAMGRAPH_API_TOKEN"
    retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if not self.endpoint.startswith(("http://", "https://")):
            raise ValueError(f"endpoint must be an http(s) URL, got {self.endpoint!r}")


def complete(config: ProviderConfig, request: CompletionRequest) -> str:
    """POST the request and return the first choice's message content.

    5xx responses and timeouts are retried with exponential backoff up to
    ``config.retries`` attempts; 401/403 fail immediately; 429 raises
    RateLimited once retries are exhausted.
    """
    body = {
        "model": config.model,
        "messages": [
            {"role": "system", "content": request.system_prompt},
            {"role": "user", "content": request.user_prompt},
        ],
        "temperature": 0.0,
        "max_tokens": 512,
    }
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(config.auth_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"

    last_error: Exception | None = None
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(config.backoff_base * (2 ** (attempt - 1)))
        try:
            response = requests.post(config.endpoint, json=body,
                                     headers=headers, timeout=request.timeout)
        except requests.Timeout as exc:
            last_error = GatewayTimeout(f"request timed out after {request.timeout}s")
            last_error.__cause__ = exc
            continue
        except requests.RequestException as exc:
            last_error = GatewayTimeout(f"transport error: {exc}")
            last_error.__cause__ = exc
            continue
        if response.status_code in (401, 403):
            raise AuthError(f"provider rejected credentials ({response.status_code})")
        if response.status_code == 429:
            last_error = RateLimited("provider rate limit (429)")
            continue
        if response.status_code >= 500:
            last_error = MalformedResponse(f"server error {response.status_code}")
            continue
        if response.status_code != 200:
            raise MalformedResponse(f"unexpected status {response.status_code}")
        return _extract_choice(response)
    assert last_error is not None
    raise last_error


def _extract_choice(response) -> str:
    try:
        data = response.json()
    except ValueError as exc:
        raise MalformedResponse("response body is not JSON") from exc
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse("no choices[0].message.content in response") from exc
    if not isinstance(content, str):
        raise MalformedResponse("choice content is not text")
    return content


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
    triples = []
    for sentence in split_sentences(text):
        match = naive_svo(sentence)
        if match:
            triples.append(list(match))
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
