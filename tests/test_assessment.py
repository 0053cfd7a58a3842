import dataclasses
import math
import operator
import random
from collections import Counter
from functools import reduce
from types import SimpleNamespace

import pytest

from examgraph.assessment import (
    DEFAULT_BLOOM_VERBS,
    BloomLevel,
    DifficultyTier,
    FEATURE_ORDER,
    FeatureId,
    IrtParams,
    RubricConfig,
    bloom_profile,
    build_lexicon,
    classify_bloom,
    irt_probability,
    measure_features,
    rate_features,
    total_difficulty,
    weighted_difficulty,
)
from examgraph.errors import AllZeroWeights, InvalidParams, MalformedItem
from examgraph.generation import BlueprintSection, ExamBlueprint
from examgraph.textutils import STOPWORDS, normalize_label, tokenize


def item(stem="Define erosion in context.", options=None, answer_index=0):
    return SimpleNamespace(stem=stem,
                           options=options or ["one", "two", "three", "four"],
                           answer_index=answer_index)


# --- 3PL ---

def test_irt_midpoint_identity():
    params = IrtParams(a=1.3, b=0.4, c=0.2)
    assert irt_probability(0.4, params) == pytest.approx(0.6, abs=1e-15)


def test_irt_frozen_value():
    # direct evaluation of c + (1-c)/(1+e^(a(b-theta))) at a=2, b=1, c=0.25
    params = IrtParams(a=2.0, b=1.0, c=0.25)
    assert irt_probability(-1.0, params) == pytest.approx(0.26348965747156866,
                                                          abs=1e-12)


def test_irt_saturates_to_one():
    params = IrtParams(a=1.0, b=0.0, c=0.0)
    assert irt_probability(100.0, params) == pytest.approx(1.0, abs=1e-12)
    assert irt_probability(-100.0, params) == pytest.approx(0.0, abs=1e-12)


def test_irt_bounds_and_monotonicity():
    params = IrtParams(a=1.7, b=-0.3, c=0.25)
    previous = -1.0
    for i in range(1001):
        theta = -6 + 12 * i / 1000
        p = irt_probability(theta, params)
        assert params.c < p < 1.0
        assert p > previous
        previous = p


def test_irt_derivative_matches_central_differences():
    params = IrtParams(a=1.4, b=0.6, c=0.15)
    h = 1e-5
    for theta in [-2.0, -0.5, 0.6, 1.5, 2.5]:
        numeric = (irt_probability(theta + h, params)
                   - irt_probability(theta - h, params)) / (2 * h)
        sigma = 1.0 / (1.0 + math.exp(-params.a * (theta - params.b)))
        analytic = params.a * (1 - params.c) * sigma * (1 - sigma)
        assert numeric == pytest.approx(analytic, abs=1e-6)


def test_irt_invalid_params():
    with pytest.raises(InvalidParams):
        IrtParams(a=0.0, b=0.0)
    with pytest.raises(InvalidParams):
        IrtParams(a=1.0, b=0.0, c=1.0)
    with pytest.raises(InvalidParams):
        IrtParams(a=1.0, b=0.0, c=-0.1)
    with pytest.raises(InvalidParams):
        irt_probability(float("nan"), IrtParams(a=1.0, b=0.0))


def test_irt_extreme_params_stay_finite():
    params = IrtParams(a=50.0, b=0.0, c=0.1)
    assert irt_probability(-100.0, params) == pytest.approx(0.1)
    assert irt_probability(100.0, params) == pytest.approx(1.0)


# --- feature measurement ---

def test_measure_word_counts():
    m = measure_features(item("Define erosion.", ["a1", "b2", "c3", "d4"]),
                         lexicon=frozenset())
    assert m[FeatureId.STEM_LENGTH] == 2.0
    assert m[FeatureId.OPTION_LENGTH] == 1.0


def test_measure_identical_options():
    m = measure_features(item(options=["same text"] * 4), lexicon=frozenset())
    assert m[FeatureId.OPTION_SIMILARITY] == pytest.approx(1.0)
    assert m[FeatureId.PLAUSIBLE_DISTRACTORS] == 3.0


def test_measure_vocab_density():
    zero = measure_features(item("Entirely unrelated words here."),
                            lexicon=frozenset({"erosion"}))
    assert zero[FeatureId.VOCAB_DENSITY] == 0.0
    half = measure_features(item("erosion badly erosion twice."),
                            lexicon=frozenset({"erosion"}))
    assert half[FeatureId.VOCAB_DENSITY] == pytest.approx(0.5)


def test_measure_malformed_items():
    with pytest.raises(MalformedItem):
        measure_features(item(stem="   "), lexicon=frozenset())
    with pytest.raises(MalformedItem):
        measure_features(item(options=["a", "b", "c"]), lexicon=frozenset())
    with pytest.raises(MalformedItem):
        measure_features(item(answer_index=7), lexicon=frozenset())


def string_cosine(a: str, b: str) -> float:
    """The cosine as it was computed from two strings before term vectors
    were built once per item: the reference for the vector version."""
    va = Counter(t for t in tokenize(a) if t not in STOPWORDS)
    vb = Counter(t for t in tokenize(b) if t not in STOPWORDS)
    if not va and not vb:
        return 1.0 if normalize_label(a) == normalize_label(b) else 0.0
    if not va or not vb:
        return 0.0
    dot = sum(va[t] * vb[t] for t in va.keys() & vb.keys())
    na = math.sqrt(sum(c * c for c in va.values()))
    nb = math.sqrt(sum(c * c for c in vb.values()))
    return dot / (na * nb)


def reference_bloom(stem, bloom_verbs=None):
    """The Bloom rule written out: the highest level whose verb set meets
    the stem's token set, Remember when none does; no verbs means the
    default ones."""
    verbs = bloom_verbs or DEFAULT_BLOOM_VERBS
    tokens = set(tokenize(stem))
    best = BloomLevel.REMEMBER
    for level in BloomLevel:
        if tokens & set(verbs.get(level, ())):
            best = level
    return best


def reference_features(stem, options, answer_index, lexicon, tau=0.4, bloom_verbs=None):
    stem_tokens = tokenize(stem)
    pair_sims = [string_cosine(options[i], options[j])
                 for i in range(4) for j in range(i + 1, 4)]
    key = options[answer_index]
    # added left to right: sum() rounds floats differently from Python 3.12 on
    mean = lambda values: reduce(operator.add, values, 0) / len(values)  # noqa: E731
    return {
        FeatureId.STEM_LENGTH: float(len(stem.split())),
        FeatureId.VOCAB_DENSITY: (sum(1 for t in stem_tokens if t in lexicon)
                                  / len(stem_tokens) if stem_tokens else 0.0),
        FeatureId.COGNITIVE_LEVEL: float(reference_bloom(stem, bloom_verbs)),
        FeatureId.OPTION_LENGTH: mean([len(o.split()) for o in options]),
        FeatureId.OPTION_SIMILARITY: mean(pair_sims),
        FeatureId.STEM_OPTION_OVERLAP: mean([string_cosine(stem, o) for o in options]),
        FeatureId.PLAUSIBLE_DISTRACTORS: float(sum(
            1 for i, o in enumerate(options)
            if i != answer_index and string_cosine(o, key) >= tau)),
    }


def test_measure_features_match_string_cosine_reference():
    # "the", "Of the!" and "..." have no content tokens: the normalize_label
    # tie-break decides their similarity
    words = ["erosion", "Erosion", "soil", "water", "rock", "wind", "the", "of",
             "an", "apply", "justify", "design", "école", "x2", "it's"]
    empty = ["the", "The.", "of the", "Of the!", "an", "...", "a a"]
    lexicon = frozenset({"erosion", "soil", "water", "the"})
    rng = random.Random(2718)
    for _ in range(400):
        def text(low, high):
            return " ".join(rng.choice(words) for _ in range(rng.randint(low, high)))
        stem = text(1, 12) + rng.choice(["?", ".", ""])
        options = [rng.choice(empty) if rng.random() < 0.3 else text(1, 4)
                   for _ in range(4)]
        answer_index = rng.randrange(4)
        got = measure_features(item(stem, options, answer_index), lexicon)
        assert got == reference_features(stem, options, answer_index, lexicon)


# custom verb lexicons: "apply" listed under two levels counts at the
# higher one, Understand and Evaluate are left out, {} means the defaults
BLOOM_VERB_CASES = [
    None,
    {},
    {BloomLevel.REMEMBER: frozenset({"define", "name"}),
     BloomLevel.APPLY: frozenset({"apply", "solve"}),
     BloomLevel.ANALYZE: frozenset({"compare"}),
     BloomLevel.CREATE: frozenset({"apply", "design"})},
    {BloomLevel.UNDERSTAND: frozenset({"erosion", "justify"}),
     BloomLevel.EVALUATE: frozenset({"soil", "justify"})},
]


def _fuzz_text(rng, words, low, high):
    return " ".join(rng.choice(words) for _ in range(rng.randint(low, high)))


def test_measure_features_custom_bloom_verbs_match_reference():
    words = ["erosion", "soil", "water", "the", "of", "apply", "solve", "justify",
             "design", "define", "name", "compare", "explain", "judge"]
    lexicon = frozenset({"erosion", "water"})
    rng = random.Random(3141)
    for n in range(400):
        bloom_verbs = BLOOM_VERB_CASES[n % len(BLOOM_VERB_CASES)]
        stem = _fuzz_text(rng, words, 1, 10) + "?"
        options = [_fuzz_text(rng, words, 1, 3) for _ in range(4)]
        answer_index = rng.randrange(4)
        tau = rng.choice([0.0, 0.25, 0.4, 1.0])
        assert classify_bloom(stem, bloom_verbs) == reference_bloom(stem, bloom_verbs)
        got = measure_features(item(stem, options, answer_index), lexicon, tau, bloom_verbs)
        assert got == reference_features(stem, options, answer_index, lexicon, tau,
                                          bloom_verbs)


def test_classify_bloom_highest_verb_wins():
    assert classify_bloom("Define the term.") == BloomLevel.REMEMBER
    assert classify_bloom("Apply and then justify the rule.") == BloomLevel.EVALUATE
    assert classify_bloom("Nothing verbal here.") == BloomLevel.REMEMBER
    assert classify_bloom("Design a protocol.") == BloomLevel.CREATE


def test_build_lexicon_expands_multiword_labels():
    from examgraph.kg import KnowledgeGraph, NodeKind

    graph = KnowledgeGraph("s")
    graph.upsert_entity("intentional pollution", NodeKind.TEXT)
    graph.upsert_entity("Ch 1", NodeKind.HIERARCHY)
    lexicon = build_lexicon(graph)
    assert "intentional pollution" in lexicon
    assert "pollution" in lexicon
    assert "ch" not in lexicon  # hierarchy labels are not domain terms


# --- ratings and aggregation ---

def test_rate_boundaries_inclusive_upward():
    thresholds = {f: (15.0, 35.0) for f in FEATURE_ORDER}
    base = {f: 0.0 for f in FEATURE_ORDER}
    assert rate_features({**base, FeatureId.STEM_LENGTH: 10.0},
                         thresholds)[FeatureId.STEM_LENGTH] == 1
    assert rate_features({**base, FeatureId.STEM_LENGTH: 15.0},
                         thresholds)[FeatureId.STEM_LENGTH] == 2
    assert rate_features({**base, FeatureId.STEM_LENGTH: 35.0},
                         thresholds)[FeatureId.STEM_LENGTH] == 3


def test_rate_monotone_in_raw_value():
    rng = random.Random(5)
    thresholds = {f: (0.3, 0.7) for f in FEATURE_ORDER}
    for _ in range(200):
        lo = rng.random()
        hi = min(1.0, lo + rng.random() * 0.5)
        low = rate_features({f: lo for f in FEATURE_ORDER}, thresholds)
        high = rate_features({f: hi for f in FEATURE_ORDER}, thresholds)
        for f in FEATURE_ORDER:
            assert high[f] >= low[f]


def test_total_difficulty_bounds_and_example():
    assert total_difficulty({f: 1 for f in FEATURE_ORDER}) == 7
    assert total_difficulty({f: 3 for f in FEATURE_ORDER}) == 21
    ratings = dict(zip(FEATURE_ORDER, [1, 2, 3, 1, 2, 3, 1]))
    assert total_difficulty(ratings) == 13


def test_weighted_difficulty_reduces_to_total_under_unit_weights():
    ratings = dict(zip(FEATURE_ORDER, [1, 2, 3, 1, 2, 3, 1]))
    assert weighted_difficulty(ratings) == total_difficulty(ratings)


def test_weighted_difficulty_examples():
    ratings = {f: 2 for f in FEATURE_ORDER}
    ratings[FEATURE_ORDER[0]] = 3
    weights = {f: 0.0 for f in FEATURE_ORDER}
    weights[FEATURE_ORDER[0]] = 2.0
    assert weighted_difficulty(ratings, weights) == 6.0
    sevenths = {f: 1 / 7 for f in FEATURE_ORDER}
    assert weighted_difficulty({f: 2 for f in FEATURE_ORDER},
                               sevenths) == pytest.approx(2.0)


def test_weighted_difficulty_rejects_all_zero():
    with pytest.raises(AllZeroWeights):
        weighted_difficulty({f: 2 for f in FEATURE_ORDER},
                            {f: 0.0 for f in FEATURE_ORDER})
    with pytest.raises(InvalidParams):
        weighted_difficulty({f: 2 for f in FEATURE_ORDER},
                            {f: -1.0 for f in FEATURE_ORDER})


def test_weighted_difficulty_linear_in_each_weight():
    rng = random.Random(9)
    ratings = {f: rng.choice([1, 2, 3]) for f in FEATURE_ORDER}
    base = {f: rng.random() + 0.1 for f in FEATURE_ORDER}
    for f in FEATURE_ORDER:
        bumped = dict(base)
        bumped[f] = base[f] + 1.0
        delta = (weighted_difficulty(ratings, bumped)
                 - weighted_difficulty(ratings, base))
        assert delta == pytest.approx(ratings[f], abs=1e-9)


# --- evaluation gate ---

def test_gate_pass_and_fail():
    rubric = RubricConfig()
    result = rubric.evaluate(item(), 14.0, epsilon=2.0)
    direct = sum(e["rating"] for e in result.breakdown)
    assert result.difficulty == direct
    assert result.passed == (abs(result.difficulty - 14.0) <= 2.0)

    exact = rubric.evaluate(item(), result.difficulty, epsilon=2.0)
    assert exact.passed
    far = rubric.evaluate(item(), result.difficulty + 3, epsilon=2.0)
    assert not far.passed


def test_gate_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        d = rng.uniform(7, 21)
        d_star = rng.uniform(7, 21)
        eps = rng.uniform(0.5, 4)
        assert (abs(d - d_star) <= eps) == (abs(d_star - d) <= eps)


def test_gate_requires_positive_epsilon():
    with pytest.raises(InvalidParams):
        RubricConfig(epsilon=0.0)


@pytest.mark.parametrize("weights, error", [
    ({f: 1.0 for f in FEATURE_ORDER} | {FeatureId.STEM_LENGTH: -1.0}, InvalidParams),
    ({f: 0.0 for f in FEATURE_ORDER}, AllZeroWeights),
    ({f: 1.0 for f in FEATURE_ORDER[:6]}, InvalidParams),
], ids=["weights0", "weights1", "weights2"])
def test_rubric_rejects_bad_weights_when_built(weights, error):
    with pytest.raises(error):
        RubricConfig(weights=weights)


def test_rubric_weight_count_is_invalid_params():
    with pytest.raises(InvalidParams):
        RubricConfig.from_dict({"weights": [1.0] * 6})


def test_rubric_config_is_frozen():
    config = RubricConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.epsilon = 0.0
    assert config.epsilon == 2.0


@pytest.mark.parametrize("overrides, error", [
    pytest.param({"weights": [1.0] * 8}, InvalidParams, id="eight-weights"),
    pytest.param({"weights": [1.0] * 6}, InvalidParams, id="six-weights"),
    pytest.param({"weights": "1111111"}, InvalidParams, id="weights-string"),
    pytest.param({"weights": [1.0] * 6 + ["x"]}, InvalidParams, id="weight-string"),
    pytest.param({"weights": [1.0] * 6 + [None]}, InvalidParams, id="weight-none"),
    pytest.param({"weights": [1.0] * 6 + [True]}, InvalidParams, id="weight-bool"),
    pytest.param({"weights": [1.0] * 6 + [-0.5]}, InvalidParams, id="weight-negative"),
    pytest.param({"weights": [1.0] * 6 + [math.nan]}, InvalidParams, id="weight-nan"),
    pytest.param({"weights": [0] * 7}, AllZeroWeights, id="weights-all-zero"),
    pytest.param({"epsilon": "x"}, InvalidParams, id="epsilon-string"),
    pytest.param({"epsilon": 0}, InvalidParams, id="epsilon-zero"),
    pytest.param({"epsilon": -1.0}, InvalidParams, id="epsilon-negative"),
    pytest.param({"epsilon": math.nan}, InvalidParams, id="epsilon-nan"),
    pytest.param({"epsilon": True}, InvalidParams, id="epsilon-bool"),
    pytest.param({"weights": True}, InvalidParams, id="weights-bool"),
    pytest.param({"weights": ["x"] * 7}, InvalidParams, id="weight-strings"),
    pytest.param({"weights": [True] * 7}, InvalidParams, id="weight-bools"),
])
def test_overrides_from_peers_and_blueprints_are_checked(overrides, error):
    """Overrides reach ``evaluate`` from bus peers: a weight list of the
    wrong length is not truncated, and a non-number is InvalidParams, not a
    TypeError. A blueprint runs the same check when it is built, and both
    ``from_dict``s run it on the values as JSON gave them: float() would
    raise a bare ValueError on "x" and take true as 1.0."""
    with pytest.raises(error):
        RubricConfig().evaluate(item(), 9.0, **overrides)
    with pytest.raises(error):
        ExamBlueprint(subject="s", sections=[BlueprintSection(
            "Ch 1", 1, {DifficultyTier.BASIC_RECALL: 1})], **overrides)
    with pytest.raises(error):
        RubricConfig.from_dict(overrides)
    with pytest.raises(error):
        ExamBlueprint.from_dict({"subject": "s", "sections": [
            {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}], **overrides})


def test_integer_overrides_from_json_become_floats():
    spec = {"subject": "s", "sections": [
        {"chapter": "Ch 1", "count": 1, "tiers": {"basic": 1}}]}
    as_ints = ExamBlueprint.from_dict(dict(spec, epsilon=1, weights=[1] * 7))
    as_floats = ExamBlueprint.from_dict(dict(spec, epsilon=1.0, weights=[1.0] * 7))
    assert as_ints.sha256() == as_floats.sha256()
    # repr tells 1 from 1.0
    assert repr(RubricConfig.from_dict({"epsilon": 1, "weights": [2] * 7}).to_dict()) == \
        repr(RubricConfig.from_dict({"epsilon": 1.0, "weights": [2.0] * 7}).to_dict())
    ints = {"tau": 2, "thresholds": {f.value: [1, 2] for f in FEATURE_ORDER},
            "tiers": {"basic": {"target": 8}}}
    floats = {"tau": 2.0, "thresholds": {f.value: [1.0, 2.0] for f in FEATURE_ORDER},
              "tiers": {"basic": {"target": 8.0}}}
    assert repr(RubricConfig.from_dict(ints).to_dict()) == \
        repr(RubricConfig.from_dict(floats).to_dict())


@pytest.mark.parametrize("config", [
    pytest.param({"tau": "x"}, id="tau-string"),
    pytest.param({"tau": True}, id="tau-bool"),
    pytest.param({"tau": None}, id="tau-null"),
    pytest.param({"tau": math.nan}, id="tau-nan"),
    pytest.param({"thresholds": {f.value: [2, 1] for f in FEATURE_ORDER}}, id="cuts-reversed"),
    pytest.param({"tiers": {"basic": {"target": math.nan}}}, id="target-nan"),
    pytest.param({"thresholds": {"stem_length": "ab"}}, id="pair-string"),
    pytest.param({"thresholds": {"stem_length": {"lo": 1}}}, id="pair-object"),
    pytest.param({"thresholds": {"stem_length": [15]}}, id="pair-short"),
    pytest.param({"thresholds": {"stem_length": [15, 35, 50]}}, id="pair-long"),
    pytest.param({"thresholds": {"stem_length": [15, "x"]}}, id="cut-string"),
    pytest.param({"thresholds": {"stem_length": [False, True]}}, id="cut-bools"),
    pytest.param({"tiers": {"basic": {"target": "9"}}}, id="target-string"),
    pytest.param({"tiers": {"basic": {"target": True}}}, id="target-bool"),
    pytest.param({"thresholds": {"bogus": [1, 2]}}, id="unknown-feature"),
    pytest.param({"tiers": {"hard": {"target": 9}}}, id="unknown-tier"),
    pytest.param({"tiers": {"basic": 9}}, id="tier-number"),
    pytest.param({"tiers": {"basic": {}}}, id="tier-without-target"),
    pytest.param({"tiers": [9, 14, 19]}, id="tiers-list"),
    pytest.param({"thresholds": "x"}, id="thresholds-string"),
    pytest.param({"bloom_verbs": {"ponder": ["muse"]}}, id="unknown-bloom-level"),
    pytest.param({"bloom_verbs": {"apply": "solve"}}, id="verbs-string"),
    pytest.param({"bloom_verbs": {"apply": [1, None]}}, id="verbs-not-strings"),
    pytest.param({"bloom_verbs": {"apply": ["solve", 3]}}, id="verb-number"),
    pytest.param({"bloom_verbs": {"apply": {"solve": 1}}}, id="verbs-object"),
    pytest.param({"bloom_verbs": ["solve"]}, id="bloom-verbs-list"),
    pytest.param([], id="config-list"),
])
def test_rubric_numbers_from_json_are_checked(config):
    """float() would raise a bare ValueError on "x", take true as 1.0 and
    unpack a two-character string as a pair. A wrongly shaped value or an
    unknown name is InvalidParams too, not the ValueError, TypeError,
    KeyError or AttributeError of its first use."""
    with pytest.raises(InvalidParams):
        RubricConfig.from_dict(config)


def _equivalence_items(rng, count):
    words = ["erosion", "soil", "water", "river", "delta", "sediment", "rock",
             "define", "explain", "compare", "judge", "design", "apply",
             "the", "of", "and", "is", "a", "in"]
    items = []
    for _ in range(count):
        stem = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
        options = [" ".join(rng.choice(words[:7] + ["the", "of"])
                            for _ in range(rng.randint(1, 3)))
                   for _ in range(4)]
        items.append(item(stem + "?", options, rng.randrange(4)))
    return items


def test_evaluate_matches_measure_rate_weigh_reference():
    """``evaluate`` rates and weighs in feature order; its verdict and
    breakdown must be bit-identical to the public three-step path, also
    for fractional weights and raw values sitting exactly on cut points."""
    rng = random.Random(71)
    lexicon = frozenset({"erosion", "sediment", "delta", "river"})
    items = _equivalence_items(rng, 360)
    # cut points taken from measured values, so some items sit on each one
    columns = list(zip(*(measure_features(i, lexicon, 0.3).values() for i in items)))
    thresholds = {}
    for feature, column in zip(FEATURE_ORDER, columns):
        values = sorted(set(column))
        thresholds[feature] = (values[len(values) // 3], values[2 * len(values) // 3])
        assert sum(v in thresholds[feature] for v in column) >= 2
    rubric = RubricConfig(
        thresholds=thresholds, tau=0.3, epsilon=1.25,
        weights=dict(zip(FEATURE_ORDER, [0.1, 0.7, 1.3, 0.05, 2.9, 1.1, 0.35])))
    weight_rows = [None, [0.1, 0.7, 1.3, 0.0, 2.9, 1.1, 0.35],
                   [1, 2, 0, 3, 1, 0, 1], [1 / 3, 0.2, 0.6, 1.7, 0.3, 0.9, 0.01]]

    passed = 0
    for n, candidate in enumerate(items):
        weights = weight_rows[n % len(weight_rows)]
        epsilon = None if n % 3 else rng.choice([0.5, 1.75, 3.0])
        target = rng.uniform(4.0, 20.0)
        result = rubric.evaluate(candidate, target, lexicon,
                                 epsilon=epsilon, weights=weights)

        measurements = measure_features(candidate, lexicon, rubric.tau,
                                        rubric.bloom_verbs)
        ratings = rate_features(measurements, rubric.thresholds)
        weight_map = (rubric.weights if weights is None
                      else dict(zip(FEATURE_ORDER, weights)))
        difficulty = weighted_difficulty(ratings, weight_map)
        expected_epsilon = rubric.epsilon if epsilon is None else epsilon
        breakdown = [{"feature": f.value, "raw": measurements[f],
                      "rating": ratings[f], "weight": weight_map[f],
                      "contribution": weight_map[f] * ratings[f]}
                     for f in FEATURE_ORDER]
        assert float(result.difficulty).hex() == float(difficulty).hex()
        assert type(result.difficulty) is type(difficulty)
        assert result.passed == (abs(difficulty - target) <= expected_epsilon)
        assert repr(result.breakdown) == repr(breakdown)
        passed += result.passed
    assert 0 < passed < len(items)


def reference_evaluation(stem, options, answer_index, lexicon, target, *,
                         thresholds, weights, tau, epsilon, bloom_verbs):
    """``evaluate`` written out from the rubric's definition: rate each raw
    value against its cut points, weigh, add left to right, gate."""
    raws = reference_features(stem, options, answer_index, lexicon, tau, bloom_verbs)
    breakdown = []
    for feature, weight in zip(FEATURE_ORDER, weights):
        cut1, cut2 = thresholds[feature]
        raw = raws[feature]
        rating = 1 if raw < cut1 else 2 if raw < cut2 else 3
        breakdown.append({"feature": feature.value, "raw": raw, "rating": rating,
                          "weight": weight, "contribution": weight * rating})
    difficulty = reduce(operator.add, [e["contribution"] for e in breakdown], 0)
    return {"difficulty": difficulty, "target": target, "epsilon": epsilon,
            "passed": abs(difficulty - target) <= epsilon, "breakdown": breakdown}


def test_evaluate_matches_written_out_reference():
    """Custom cut points, weights, tau, epsilon and Bloom verbs, on the
    rubric and as overrides; floats compared with ==."""
    words = ["erosion", "soil", "water", "rock", "wind", "the", "of", "an",
             "apply", "justify", "design", "define", "compare", "it's"]
    empty = ["the", "The.", "of the", "..."]
    lexicon = frozenset({"erosion", "soil", "the"})
    rng = random.Random(1618)
    for n in range(300):
        thresholds = {}
        for feature in FEATURE_ORDER:
            cut1 = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, rng.uniform(0, 6)])
            thresholds[feature] = (cut1, cut1 + rng.choice([0.25, 0.5, 1.0, rng.random() + 0.01]))
        rubric_weights = [rng.choice([0.0, 0.5, 1.0, 1 / 3, rng.random()]) for _ in FEATURE_ORDER]
        rubric_weights[n % 7] = rng.uniform(0.1, 3.0)  # never all zero
        rubric = RubricConfig(
            thresholds=thresholds, weights=dict(zip(FEATURE_ORDER, rubric_weights)),
            tau=rng.choice([0.0, 0.3, 0.4, 0.5, 1.0]), epsilon=rng.uniform(0.1, 4.0),
            bloom_verbs=BLOOM_VERB_CASES[n % len(BLOOM_VERB_CASES)] or {})
        weights = None if n % 2 else [rng.choice([0, 1, 2, 0.1, 0.7, 1 / 7])
                                      for _ in FEATURE_ORDER]
        if weights is not None and not any(weights):
            weights[0] = 1
        epsilon = None if n % 3 else rng.choice([1, 0.5, 2.25])
        stem = _fuzz_text(rng, words, 1, 12) + rng.choice(["?", ".", ""])
        options = [rng.choice(empty) if rng.random() < 0.2 else _fuzz_text(rng, words, 1, 4)
                   for _ in range(4)]
        answer_index = rng.randrange(4)
        target = rng.choice([9.0, 14.0, rng.uniform(0.0, 20.0)])
        got = rubric.evaluate(item(stem, options, answer_index), target, lexicon,
                              epsilon=epsilon, weights=weights)
        expected = reference_evaluation(
            stem, options, answer_index, lexicon, target, thresholds=thresholds,
            weights=rubric_weights if weights is None else weights, tau=rubric.tau,
            epsilon=rubric.epsilon if epsilon is None else epsilon,
            bloom_verbs=rubric.bloom_verbs)
        assert got.to_dict() == expected


def test_breakdown_lists_every_feature():
    result = RubricConfig().evaluate(item(), 10.0, epsilon=2.0)
    assert [e["feature"] for e in result.breakdown] == [f.value for f in FEATURE_ORDER]
    for entry in result.breakdown:
        assert entry["contribution"] == entry["weight"] * entry["rating"]


# --- bloom profiles and tiers ---

def test_bloom_profile_remember_is_all_ones():
    assert bloom_profile(BloomLevel.REMEMBER) == {f: 1 for f in FEATURE_ORDER}


def test_bloom_profile_analyze_option_similarity_high():
    assert bloom_profile(BloomLevel.ANALYZE)[FeatureId.OPTION_SIMILARITY] == 3


def test_bloom_profiles_componentwise_monotone():
    levels = list(BloomLevel)
    for lower, higher in zip(levels, levels[1:]):
        low_profile = bloom_profile(lower)
        high_profile = bloom_profile(higher)
        for f in FEATURE_ORDER:
            assert high_profile[f] >= low_profile[f]


def test_rubric_config_json_round_trip(tmp_path):
    weights = {f: 1.0 for f in FEATURE_ORDER} | {FeatureId.STEM_LENGTH: 2.0}
    config = RubricConfig(weights=weights, epsilon=1.5)
    assert config.weights[FeatureId.STEM_LENGTH] == 2.0
    path = tmp_path / "rubric.json"
    import json

    path.write_text(json.dumps(config.to_dict()))
    loaded = RubricConfig.load(path)
    assert loaded.weights == config.weights
    assert loaded.epsilon == 1.5
    assert loaded.thresholds == config.thresholds
    assert loaded.tiers == config.tiers
    assert loaded.bloom_verbs == config.bloom_verbs


def test_rubric_file_with_tier_bands_still_loads():
    loaded = RubricConfig.from_dict(
        {"tiers": {"basic": {"target": 8, "band": [7, 11]}}})
    assert loaded.tiers == {DifficultyTier.BASIC_RECALL: 8.0}
