"""Difficulty rubric: per-feature low/medium/high ratings, total and
weighted aggregation, tier targets and the evaluation gate.

Each of the seven features is rated 1, 2 or 3 against two configurable cut
points; the total T = sum(d_i) therefore lives in [7, 21]. A weighted sum
D = sum(w_i * d_i) is compared against a target D* and accepted when
|D - D*| <= epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..checks import array, boolean, integer, json_file, member, number, obj, string, strings
from ..errors import AllZeroWeights, InvalidParams
from .features import (
    DEFAULT_BLOOM_VERBS,
    DEFAULT_TAU,
    FEATURE_ORDER,
    BloomLevel,
    FeatureId,
    measure_row,
    verb_levels,
)

Thresholds = dict[FeatureId, tuple[float, float]]
Ratings = dict[FeatureId, int]
Weights = dict[FeatureId, float]

DEFAULT_THRESHOLDS: Thresholds = {
    FeatureId.STEM_LENGTH: (15.0, 35.0),
    FeatureId.VOCAB_DENSITY: (0.10, 0.30),
    FeatureId.COGNITIVE_LEVEL: (3.0, 5.0),
    FeatureId.OPTION_LENGTH: (4.0, 10.0),
    FeatureId.OPTION_SIMILARITY: (0.25, 0.55),
    FeatureId.STEM_OPTION_OVERLAP: (0.25, 0.55),
    FeatureId.PLAUSIBLE_DISTRACTORS: (2.0, 3.0),
}

UNIT_WEIGHTS: Weights = {f: 1.0 for f in FEATURE_ORDER}

# read once: Enum.value is a Python-level property
_FEATURE_NAMES = tuple(f.value for f in FEATURE_ORDER)
_WEIGHT_FIELDS = tuple(f"weight for {name}" for name in _FEATURE_NAMES)

DEFAULT_EPSILON = 2.0


class DifficultyTier(Enum):
    BASIC_RECALL = "basic"
    APPLIED_UNDERSTANDING = "applied"
    COMPREHENSIVE_ANALYSIS = "comprehensive"
    __hash__ = object.__hash__  # members are singletons; Enum's hash runs in Python


# Target total difficulty D* per tier, spread over the [7, 21] range.
DEFAULT_TIERS: dict[DifficultyTier, float] = {
    DifficultyTier.BASIC_RECALL: 9.0,
    DifficultyTier.APPLIED_UNDERSTANDING: 14.0,
    DifficultyTier.COMPREHENSIVE_ANALYSIS: 19.0,
}

# Table-driven encoding of how feature demands grow across Bloom levels.
_BLOOM_PROFILE_ROWS: dict[FeatureId, tuple[int, int, int, int, int, int]] = {
    FeatureId.STEM_LENGTH: (1, 2, 2, 3, 3, 3),
    FeatureId.VOCAB_DENSITY: (1, 2, 2, 3, 3, 3),
    FeatureId.COGNITIVE_LEVEL: (1, 1, 2, 2, 3, 3),
    FeatureId.OPTION_LENGTH: (1, 1, 2, 3, 3, 3),
    FeatureId.OPTION_SIMILARITY: (1, 2, 2, 3, 3, 3),
    FeatureId.STEM_OPTION_OVERLAP: (1, 2, 2, 3, 3, 3),
    FeatureId.PLAUSIBLE_DISTRACTORS: (1, 2, 2, 3, 3, 3),
}


def bloom_profile(level: BloomLevel) -> Ratings:
    """Expected rating profile for items targeting one Bloom level;
    componentwise non-decreasing as the level rises."""
    return {f: _BLOOM_PROFILE_ROWS[f][level - 1] for f in FEATURE_ORDER}


def validate_thresholds(thresholds: Thresholds) -> Thresholds:
    for feature in FEATURE_ORDER:
        if feature not in thresholds:
            raise InvalidParams(f"missing thresholds for {feature.value}")
        cut1, cut2 = thresholds[feature]
        if not cut1 < cut2:
            raise InvalidParams(
                f"{feature.value}: cut points must satisfy cut1 < cut2, got {cut1}, {cut2}")
    return thresholds


def validate_overrides(epsilon: float | None, weights: list[float] | None) -> None:
    """Reject a gate that cannot work: epsilon must be a number > 0, and
    the weights exactly seven numbers in feature order, each >= 0 and not
    all of them zero. None skips that check. Blueprints and bus peers send
    these values, so a bad one raises InvalidParams (AllZeroWeights when
    every weight is zero), never a TypeError."""
    if epsilon is not None:
        number(epsilon, "epsilon", above=0)
    if weights is None:
        return
    for name, weight in zip(_WEIGHT_FIELDS, array(weights, "weights", size=len(FEATURE_ORDER))):
        if number(weight, name) < 0:
            raise InvalidParams(f"{name} must be a number >= 0, got {weight!r}")
    if not any(weights):
        raise AllZeroWeights("feature weights must not all be zero")


def validate_gate(epsilon: float | None, weights: Weights | None) -> None:
    """``validate_overrides`` for feature-keyed weights; a missing feature
    is rejected."""
    validate_overrides(epsilon, None if weights is None
                       else [weights.get(f) for f in FEATURE_ORDER])


def _rate_row(raws, cuts) -> list[int]:
    """Ratings of raw values against their (cut1, cut2) pairs, both in
    feature order."""
    return [1 if raw < cut1 else (2 if raw < cut2 else 3)
            for raw, (cut1, cut2) in zip(raws, cuts)]


def rate_features(measurements: dict[FeatureId, float],
                  thresholds: Thresholds | None = None) -> Ratings:
    """Map raw values onto ratings: 1 below cut1, 2 in [cut1, cut2),
    3 at or above cut2."""
    thresholds = validate_thresholds(thresholds or DEFAULT_THRESHOLDS)
    return dict(zip(FEATURE_ORDER, _rate_row(
        [measurements[f] for f in FEATURE_ORDER],
        [thresholds[f] for f in FEATURE_ORDER])))


def total_difficulty(ratings: Ratings) -> int:
    """T = sum of the seven feature ratings; always within [7, 21]."""
    return sum(int(ratings[f]) for f in FEATURE_ORDER)


def weighted_difficulty(ratings: Ratings, weights: Weights | None = None) -> float:
    """Weighted total sum(w_i * d_i); equals total_difficulty under unit
    weights."""
    weights = weights or UNIT_WEIGHTS
    validate_gate(None, weights)
    total = 0  # added left to right: sum() rounds floats differently from Python 3.12 on
    for f in FEATURE_ORDER:
        total += weights[f] * ratings[f]
    return total


@dataclass
class EvaluationResult:
    difficulty: float
    target: float
    epsilon: float
    passed: bool
    breakdown: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "difficulty": self.difficulty,
            "target": self.target,
            "epsilon": self.epsilon,
            "passed": self.passed,
            "breakdown": self.breakdown,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationResult":
        # a verdict from a bus peer: its numbers pass through as JSON gave them
        data = obj(data, "evaluation")
        for key in ("difficulty", "target", "epsilon"):
            number(data.get(key), key)
        boolean(data.get("passed"), "passed")
        for entry in array(data.get("breakdown"), "breakdown"):
            string(obj(entry, "breakdown entry").get("feature"), "breakdown feature")
            integer(entry.get("rating"), "breakdown rating")
        return cls(
            difficulty=data["difficulty"],
            target=data["target"],
            epsilon=data["epsilon"],
            passed=data["passed"],
            breakdown=list(data["breakdown"]),
        )


@dataclass(frozen=True)
class RubricConfig:
    """Everything the evaluator needs, loadable from one JSON file."""

    thresholds: Thresholds = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    weights: Weights = field(default_factory=lambda: dict(UNIT_WEIGHTS))
    tiers: dict[DifficultyTier, float] = field(default_factory=lambda: dict(DEFAULT_TIERS))
    epsilon: float = DEFAULT_EPSILON
    tau: float = DEFAULT_TAU
    bloom_verbs: dict[BloomLevel, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_BLOOM_VERBS))

    def __post_init__(self):
        validate_thresholds(self.thresholds)
        validate_gate(self.epsilon, self.weights)
        # what every evaluation reads, in feature order; the rubric is frozen
        object.__setattr__(self, "_cuts", tuple(self.thresholds[f] for f in FEATURE_ORDER))
        object.__setattr__(self, "_weight_row", tuple(self.weights[f] for f in FEATURE_ORDER))
        object.__setattr__(self, "_verb_levels", verb_levels(self.bloom_verbs))

    def evaluate(self, item, target: float,
                 lexicon: frozenset[str] | set[str] = frozenset(), *,
                 epsilon: float | None = None,
                 weights: list[float] | None = None) -> EvaluationResult:
        """Measure, rate and aggregate an item, then gate it against the
        target: pass iff |D - D*| <= epsilon. ``epsilon`` and ``weights``
        (seven values in feature order) are a blueprint's overrides of the
        rubric's own. The breakdown lists every feature's raw value, rating,
        weight and contribution.

        The rubric was validated when it was built; only the overrides are
        checked here."""
        validate_overrides(epsilon, weights)
        epsilon = self.epsilon if epsilon is None else epsilon
        if weights is None:
            weights = self._weight_row
        raws = measure_row(item, lexicon, self.tau, self._verb_levels)
        ratings = _rate_row(raws, self._cuts)
        difficulty = 0  # added left to right, as weighted_difficulty adds
        breakdown = []
        for name, raw, rating, weight in zip(_FEATURE_NAMES, raws, ratings, weights):
            contribution = weight * rating
            difficulty += contribution
            breakdown.append({"feature": name, "raw": raw, "rating": rating,
                              "weight": weight, "contribution": contribution})
        return EvaluationResult(
            difficulty=difficulty,
            target=target,
            epsilon=epsilon,
            passed=abs(difficulty - target) <= epsilon,
            breakdown=breakdown,
        )

    def to_dict(self) -> dict:
        return {
            "thresholds": {f.value: list(self.thresholds[f]) for f in FEATURE_ORDER},
            "weights": [self.weights[f] for f in FEATURE_ORDER],
            "tiers": {
                tier.value: {"target": target} for tier, target in self.tiers.items()
            },
            "epsilon": self.epsilon,
            "tau": self.tau,
            "bloom_verbs": {
                level.name.lower(): sorted(verbs)
                for level, verbs in self.bloom_verbs.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RubricConfig":
        # check the raw values: float() raises a bare ValueError on "x" and
        # takes true as 1.0, and a wrongly shaped value would fail with
        # whatever error its first use raises
        data = obj(data, "rubric config")
        validate_overrides(data.get("epsilon"), data.get("weights"))
        kwargs = {}
        if "thresholds" in data:
            kwargs["thresholds"] = {
                member(name, "feature", FeatureId):
                    tuple(number(c, f"{name} cut") for c in array(pair, f"{name} cuts", size=2))
                for name, pair in obj(data["thresholds"], "thresholds").items()
            }
        if data.get("weights") is not None:
            kwargs["weights"] = dict(zip(FEATURE_ORDER, map(float, data["weights"])))
        if "tiers" in data:
            kwargs["tiers"] = {
                member(name, "tier", DifficultyTier): number(
                    obj(spec, f"tier {name}").get("target"), f"{name} target")
                for name, spec in obj(data["tiers"], "tiers").items()
            }
        if data.get("epsilon") is not None:
            kwargs["epsilon"] = float(data["epsilon"])
        if "tau" in data:
            kwargs["tau"] = number(data["tau"], "tau")
        if "bloom_verbs" in data:
            kwargs["bloom_verbs"] = {
                member(name, "Bloom level", lambda n: BloomLevel[n.upper()]):
                    frozenset(strings(verbs, f"{name} verbs"))
                for name, verbs in obj(data["bloom_verbs"], "bloom_verbs").items()
            }
        return cls(**kwargs)

    def target(self, tier: DifficultyTier) -> float:
        if tier not in self.tiers:  # a rubric file may name some tiers only
            raise InvalidParams(f"the rubric gives no target for tier {tier.value!r}")
        return self.tiers[tier]

    @classmethod
    def load(cls, path) -> "RubricConfig":
        return cls.from_dict(json_file(path, "rubric config"))
