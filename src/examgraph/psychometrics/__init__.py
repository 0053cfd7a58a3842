from .anova import (
    AnovaResult,
    EffectStats,
    TwoWayAnovaResult,
    levene_test,
    one_way_anova,
    pairwise_welch_bonferroni,
    two_way_anova,
)
from .beta import f_survival, reg_incomplete_beta, t_survival_two_sided
from .itemstats import (
    ResponseMatrix,
    item_discrimination,
    item_discriminations,
    item_p_value,
    item_p_values,
)
from .report import analyze
