"""`pretty_json` and `Exam.to_json` write exactly what the standard library
writes for the exam and CLI format: ``json.dumps(obj, sort_keys=True,
indent=2, ensure_ascii=False)``."""

import copy
import dataclasses
import json
import random

import pytest

from examgraph.assessment import BloomLevel
from examgraph.generation import ExamBlueprint, TemplateGenerator, generate_exam, pretty_json
from examgraph.generation.exam import _item_text

from helpers import ROOTS_A, blueprint_dict, build_registry

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


class Mapping(dict):
    pass


class Sequence(list):
    pass


def leaf_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(list(BloomLevel))  # an IntEnum
    if kind == 1:
        return rng.choice([float("nan"), float("inf"), float("-inf")])
    return random_scalar(rng)


def random_leaf(rng: random.Random):
    """A dict, list or tuple (or a subclass) that holds no dict, list or tuple."""
    size = rng.choice([0, 1, 2, 3, 7])
    kind = rng.randrange(5)
    if kind < 3:
        return (list, tuple, Sequence)[kind](leaf_scalar(rng) for _ in range(size))
    key_kind = rng.choice([0, 0, 1, 2])
    leaf = {random_key(rng, key_kind): leaf_scalar(rng) for _ in range(size)}
    return Mapping(leaf) if kind == 4 else leaf


def leafy_value(rng: random.Random, depth: int):
    """A payload ``depth`` containers deep whose values are mostly leaves:
    one child leads on down, its siblings are leaves (some empty), scalars or
    shallower payloads."""
    if depth == 0:
        return random_leaf(rng)
    children = [leafy_value(rng, depth - 1)]
    for _ in range(rng.randrange(4)):
        pick = rng.randrange(4)
        children.insert(rng.randrange(len(children) + 1), (
            random_leaf(rng) if pick < 2 else leaf_scalar(rng) if pick == 2
            else leafy_value(rng, rng.randrange(depth))))
    kind = rng.randrange(3)
    if kind < 2:
        return (list, tuple)[kind](children)
    key_kind = rng.choice([0, 0, 1])
    keys = {random_key(rng, key_kind) for _ in range(3 * len(children))}
    return dict(zip(keys, children))


@pytest.mark.parametrize("depth", range(9))
def test_leafy_payloads_match_json_dumps(depth):
    rng = random.Random(f"leafy|{depth}")
    for _ in range(40):
        payload = leafy_value(rng, depth)
        assert pretty_json(payload) == reference(payload)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", complex(1, 2)],
                         ids=["object", "set", "bytes", "complex"])
def test_unserialisable_value_in_a_leaf_raises_like_json_dumps(bad):
    rng = random.Random(f"bad-leaf|{type(bad).__name__}")
    for depth in range(9):
        payload = leafy_value(rng, depth)
        assert pretty_json(payload) == reference(payload)
        leaf = payload
        while True:  # walk down to a leaf and plant the bad value in it
            values = list(leaf.values() if isinstance(leaf, dict) else leaf)
            nested = [v for v in values if isinstance(v, (dict, list, tuple))]
            if not nested:
                break
            leaf = nested[0]
        if isinstance(leaf, dict):
            leaf["bad"] = bad
            if any(not isinstance(k, str) for k in leaf):
                continue  # keys that do not sort together fail first
        elif isinstance(leaf, list):
            leaf.append(bad)
        else:
            continue
        with pytest.raises(TypeError) as expected:
            reference(payload)
        with pytest.raises(TypeError) as got:
            pretty_json(payload)
        assert str(got.value) == str(expected.value)
        assert "is not JSON serializable" in str(got.value)


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


# --- Exam.to_json: items from templates, the walker for everything else ---

class Real(float):
    pass


def odd_value(rng: random.Random):
    """A fresh value the item templates do not take (or one they take at an
    odd magnitude): a shared one could end up containing itself."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_value(rng)
    if kind == 1:
        return leafy_value(rng, rng.randrange(3))
    return rng.choice([
        True, False, None, float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
        2**70, -(10**400), BloomLevel.APPLY, Real(1.5), "\u2028 \"q\" \\ \x00 é",
        "", [], {}, (), (1, "x"), [[1]], {"k": {}}])


def perturb(rng: random.Random, item: dict) -> None:
    """One change to an item, a breakdown row or the provenance."""
    rows = item.get("breakdown")
    records = [item]
    if isinstance(item.get("provenance"), dict):
        records.append(item["provenance"])
    if isinstance(rows, list):
        records += [row for row in rows if isinstance(row, dict)]
    record = rng.choice(records)
    kind = rng.randrange(7)
    if kind <= 2 and record:  # an odd value in a slot
        record[rng.choice(sorted(record))] = odd_value(rng)
    elif kind == 3 and record:  # a missing key
        del record[rng.choice(sorted(record))]
    elif kind == 4:  # an extra key
        record[rng.choice(["aa", "ratings2", "raw_", "zz", random_text(rng)])] = odd_value(rng)
    elif kind == 5:  # an empty list or dict
        key = rng.choice(["breakdown", "options", "ratings", "provenance"])
        if key == "provenance" and isinstance(item.get(key), dict):
            item[key]["facts"] = []
        else:
            item[key] = {} if key == "ratings" else []
    elif kind == 6:  # no provenance, a row that is no record, a record subclass
        change = rng.randrange(3)
        if change == 0:
            item.pop("provenance", None)
        elif change == 1 and isinstance(rows, list) and rows:
            rows[rng.randrange(len(rows))] = odd_value(rng)
        elif isinstance(rows, list) and rows:
            rows[0] = Mapping(rows[0]) if isinstance(rows[0], dict) else rows[0]


@pytest.fixture(scope="module")
def generated_exam():
    """A real exam: items as ``_evaluated_item_payload`` builds them, with
    rejects and unfilled cells from a tight gate."""
    registry, _, _ = build_registry("envsci", ROOTS_A, chapters=2)
    spec = dict(blueprint_dict("envsci", 2), epsilon=0.5)
    exam = generate_exam(registry, ExamBlueprint.from_dict(spec),
                         TemplateGenerator(registry.get("envsci"), seed=3), seed=3)
    assert exam.items and exam.rejects and exam.unfilled
    return exam


def exam_reference(exam) -> str:
    return reference(exam.to_dict()) + "\n"


def test_generated_exam_matches_json_dumps(generated_exam):
    # every item ExamSession builds takes the template, not the walker
    assert all(_item_text(item) for item in generated_exam.items)
    assert generated_exam.to_json() == exam_reference(generated_exam)
    for header in ({"subject": "é \u2028 \"s\""}, {"items": []}, {"items": ()},
                   {"rejects": [], "unfilled": []}, {"seed": 2**70, "requested": None}):
        exam = dataclasses.replace(generated_exam, **header)
        assert exam.to_json() == exam_reference(exam)


@pytest.mark.parametrize("seed", range(20))
def test_perturbed_exam_items_match_json_dumps(generated_exam, seed):
    rng = random.Random(f"exam-items|{seed}")
    for _ in range(15):
        items = copy.deepcopy(generated_exam.items)
        for item in rng.sample(items, rng.randint(1, 4)):
            for _ in range(rng.randint(1, 3)):
                perturb(rng, item)
        if rng.randrange(5) == 0:
            items[rng.randrange(len(items))] = odd_value(rng)
        exam = dataclasses.replace(generated_exam, items=items)
        assert exam.to_json() == exam_reference(exam)
