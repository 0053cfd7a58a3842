"""Analysis of variance: one-way, balanced two-way with interaction, the
median-centered Levene (Brown-Forsythe) test, and Bonferroni-corrected
pairwise Welch comparisons as the post-hoc procedure."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from ..errors import DegenerateInput, UnbalancedDesign
from .beta import f_survival, t_survival_two_sided

Sample = list[float]


def _sum(values: Iterable[float]) -> float:
    """Added left to right, as sum() adds floats before Python 3.12 (which
    compensates), so the analysis bytes are the same on every version."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p: float
    ss_between: float
    ss_within: float
    ss_total: float
    degenerate: bool = False  # set when within-group variance is zero

    def to_dict(self) -> dict:
        return {
            "F": self.f_stat,
            "df": [self.df_between, self.df_within],
            "p": self.p,
            "ss_between": self.ss_between,
            "ss_within": self.ss_within,
            "ss_total": self.ss_total,
            "degenerate": self.degenerate,
        }


@dataclass
class EffectStats:
    name: str
    ss: float
    df: int
    f_stat: float
    p: float


@dataclass
class TwoWayAnovaResult:
    factor_a: EffectStats
    factor_b: EffectStats
    interaction: EffectStats
    ss_residual: float
    df_residual: int
    ss_total: float
    degenerate: bool = False


def _check_groups(groups: list[Sample]) -> None:
    if len(groups) < 2:
        raise DegenerateInput(f"need >= 2 groups, got {len(groups)}")
    for i, group in enumerate(groups):
        if len(group) < 2:
            raise DegenerateInput(f"group {i} needs >= 2 observations, got {len(group)}")


def _effect_f_p(ss: float, df: int, ms_within: float, df_within: int) -> tuple[float, float]:
    if ms_within == 0.0:
        if ss == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    f_stat = (ss / df) / ms_within
    return f_stat, f_survival(f_stat, df, df_within)


def one_way_anova(groups: list[Sample]) -> AnovaResult:
    """Standard decomposition SS_total = SS_between + SS_within with
    F = MS_between / MS_within and the F-distribution tail probability.

    Zero within-group variance is reported as a flagged infinite F rather
    than an error (p = 0), except when the group means also coincide.
    """
    _check_groups(groups)
    k = len(groups)
    n_total = sum(len(g) for g in groups)
    grand = _sum(_sum(g) for g in groups) / n_total
    means = [_sum(g) / len(g) for g in groups]
    ss_between = _sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ss_within = _sum(_sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
    ss_total = _sum(_sum((x - grand) ** 2 for x in g) for g in groups)
    df_between = k - 1
    df_within = n_total - k
    ms_within = ss_within / df_within
    f_stat, p = _effect_f_p(ss_between, df_between, ms_within, df_within)
    return AnovaResult(
        f_stat=f_stat, df_between=df_between, df_within=df_within, p=p,
        ss_between=ss_between, ss_within=ss_within, ss_total=ss_total,
        degenerate=(ms_within == 0.0),
    )


def two_way_anova(cells: list[list[Sample]]) -> TwoWayAnovaResult:
    """Balanced two-factor ANOVA with interaction.

    ``cells[i][j]`` holds the observations for level i of factor A and
    level j of factor B; every cell must have the same size >= 2.
    """
    if not cells or not cells[0]:
        raise UnbalancedDesign("need a non-empty factor A x factor B table")
    a_levels = len(cells)
    b_levels = len(cells[0])
    if a_levels < 2 or b_levels < 2:
        raise UnbalancedDesign("each factor needs >= 2 levels")
    if any(len(row) != b_levels for row in cells):
        raise UnbalancedDesign("ragged factor B dimension")
    n = len(cells[0][0])
    if n < 2:
        raise UnbalancedDesign("cell size must be >= 2")
    for row in cells:
        for cell in row:
            if len(cell) != n:
                raise UnbalancedDesign(
                    f"unequal cell sizes: expected {n}, got {len(cell)}")

    cell_means = [[_sum(cell) / n for cell in row] for row in cells]
    a_means = [_sum(row) / b_levels for row in cell_means]
    b_means = [_sum(cell_means[i][j] for i in range(a_levels)) / a_levels
               for j in range(b_levels)]
    grand = _sum(a_means) / a_levels

    ss_a = b_levels * n * _sum((m - grand) ** 2 for m in a_means)
    ss_b = a_levels * n * _sum((m - grand) ** 2 for m in b_means)
    ss_ab = n * _sum(
        (cell_means[i][j] - a_means[i] - b_means[j] + grand) ** 2
        for i in range(a_levels) for j in range(b_levels)
    )
    ss_resid = _sum(
        (x - cell_means[i][j]) ** 2
        for i in range(a_levels) for j in range(b_levels) for x in cells[i][j]
    )
    ss_total = _sum(
        (x - grand) ** 2
        for row in cells for cell in row for x in cell
    )

    df_a = a_levels - 1
    df_b = b_levels - 1
    df_ab = df_a * df_b
    df_resid = a_levels * b_levels * (n - 1)
    ms_resid = ss_resid / df_resid

    fa, pa = _effect_f_p(ss_a, df_a, ms_resid, df_resid)
    fb, pb = _effect_f_p(ss_b, df_b, ms_resid, df_resid)
    fab, pab = _effect_f_p(ss_ab, df_ab, ms_resid, df_resid)
    return TwoWayAnovaResult(
        factor_a=EffectStats("factor_a", ss_a, df_a, fa, pa),
        factor_b=EffectStats("factor_b", ss_b, df_b, fb, pb),
        interaction=EffectStats("interaction", ss_ab, df_ab, fab, pab),
        ss_residual=ss_resid, df_residual=df_resid, ss_total=ss_total,
        degenerate=(ms_resid == 0.0),
    )


def levene_test(groups: list[Sample]) -> AnovaResult:
    """Brown-Forsythe variant of Levene's homogeneity-of-variance test:
    one-way ANOVA on absolute deviations from each group's median."""
    _check_groups(groups)
    medians = [statistics.median(g) for g in groups]
    return one_way_anova([[abs(x - m) for x in g] for g, m in zip(groups, medians)])


def pairwise_welch_bonferroni(groups: list[Sample],
                              labels: list[str] | None = None) -> list[dict]:
    """Bonferroni-corrected pairwise Welch t comparisons (the post-hoc
    procedure used instead of Tukey HSD; clearly labeled in the output)."""
    _check_groups(groups)
    labels = labels or [f"group{i}" for i in range(len(groups))]
    pairs = list(combinations(range(len(groups)), 2))
    results = []
    for i, j in pairs:
        g1, g2 = groups[i], groups[j]
        n1, n2 = len(g1), len(g2)
        m1, m2 = _sum(g1) / n1, _sum(g2) / n2
        v1 = _sum((x - m1) ** 2 for x in g1) / (n1 - 1)
        v2 = _sum((x - m2) ** 2 for x in g2) / (n2 - 1)
        se_sq = v1 / n1 + v2 / n2
        if se_sq == 0.0:
            t_stat = 0.0 if m1 == m2 else math.inf
            df = float(n1 + n2 - 2)
        else:
            t_stat = (m1 - m2) / math.sqrt(se_sq)
            df = se_sq ** 2 / (
                (v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1)
            )
        p_raw = t_survival_two_sided(t_stat, df)
        results.append({
            "pair": [labels[i], labels[j]],
            "method": "bonferroni_welch",
            "t": t_stat,
            "df": df,
            "p": p_raw,
            "p_adjusted": min(1.0, p_raw * len(pairs)),
        })
    return results
