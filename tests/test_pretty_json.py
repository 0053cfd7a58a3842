"""`pretty_json` writes exactly what the standard library writes for the
exam and CLI format: ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False)``."""

import json
import random

import pytest

from examgraph.assessment import BloomLevel
from examgraph.generation import pretty_json

TEXT_ALPHABET = ['a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '\b', '\f',
                 '\x00', '\x1f', '\x7f', 'é', '中', ' ', '\ud800', '😀', "'"]
FLOATS = [0.0, -0.0, 1e-7, 1e16, 1.5, -2.25, 0.1, 1 / 3, 1e308, 5e-324,
          float("nan"), float("inf"), float("-inf")]
INTS = [0, 1, -1, 42, 2**31, -2**63, 2**70, -(10**30)]


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(0, 8)))


def random_scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice(INTS + [rng.randint(-10**6, 10**6)])
    if kind == 2:
        return rng.choice(FLOATS + [rng.uniform(-1e6, 1e6)])
    return [True, False, None, random_text(rng)][kind - 3]


def random_key(rng: random.Random, key_kind: int):
    """A dict key; one dict mixes only kinds that sort against each other."""
    if key_kind == 0:
        return random_text(rng)
    if key_kind == 1:  # int, float and bool keys compare with each other
        return rng.choice([rng.choice(INTS), rng.choice(FLOATS[:10]), True, False])
    return None


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5) if depth < 4 else 0
    if kind <= 1:
        return random_scalar(rng)
    size = rng.choice([0, 1, 2, 3, 5])
    if kind == 2:
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 3:
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    key_kind = rng.choice([0, 0, 0, 1, 2])
    return {random_key(rng, key_kind): random_value(rng, depth + 1) for _ in range(size)}


@pytest.mark.parametrize("seed", range(20))
def test_random_payloads_match_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(50):
        payload = random_value(rng)
        assert pretty_json(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), "", 0, -0.0, 1e-7, 1e16, float("nan"), float("-inf"), 2**100,
    True, None, "tab\there \"quoted\" \\ é\x01",
    {"b": [], "a": {}, "c": [{}, [[]], ()]},
    {1: "int", 2.5: "float", False: "bool"},
    {None: [1, 2.0, None]},
    {float("inf"): 1, float("-inf"): 2, -0.0: 3},
    {BloomLevel.APPLY: [BloomLevel.EVALUATE, 2.5]},  # an IntEnum key and value
], ids=repr)
def test_edge_payloads_match_json_dumps(payload):
    assert pretty_json(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}},             # unserialisable value
    [object()],
    b"bytes",
    {"a": [1, complex(1, 2)]},
    {(1, 2): "tuple key"},     # key type json rejects
    {"a": 1, 2: "b"},          # keys that do not sort together
    {None: 1, "a": 2},
], ids=["set", "object", "bytes", "complex", "tuple_key", "int_and_str_keys",
        "none_and_str_keys"])
def test_unserialisable_payloads_raise_like_json_dumps(payload):
    with pytest.raises(TypeError) as expected:
        reference(payload)
    with pytest.raises(TypeError) as got:
        pretty_json(payload)
    assert str(got.value) == str(expected.value)
