from .features import (
    DEFAULT_BLOOM_VERBS,
    DEFAULT_TAU,
    FEATURE_ORDER,
    BloomLevel,
    FeatureId,
    build_lexicon,
    classify_bloom,
    measure_features,
)
from .irt import IrtParams, irt_probability
from .rubric import (
    DEFAULT_EPSILON,
    DEFAULT_THRESHOLDS,
    DEFAULT_TIERS,
    UNIT_WEIGHTS,
    DifficultyTier,
    EvaluationResult,
    RubricConfig,
    bloom_profile,
    rate_features,
    total_difficulty,
    validate_gate,
    validate_overrides,
    weighted_difficulty,
)
