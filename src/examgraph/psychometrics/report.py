"""Batch analysis report: per-item statistics plus optional group-level
summaries and ANOVA when a participant-to-group assignment is supplied."""

from __future__ import annotations

import math

from ..errors import TooFewParticipants
from .anova import _sum, levene_test, one_way_anova, pairwise_welch_bonferroni
from .itemstats import ResponseMatrix, _discriminations, _tally


def _mean_sd(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = _sum(values) / n
    if n < 2:
        return mean, 0.0
    var = _sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def analyze(matrix: ResponseMatrix, groups: dict[str, str] | None = None,
            discrimination_fraction: float = 0.25) -> dict:
    """Full JSON-ready report for one response matrix.

    ``groups`` maps participant id -> group label; when at least two groups
    have two or more members the report adds mean/SD accuracy per group, a
    one-way ANOVA across groups, Levene's test, and Bonferroni-corrected
    pairwise Welch comparisons.
    """
    totals, counts = _tally(matrix)
    try:
        discriminations = _discriminations(matrix, discrimination_fraction, totals)
    except TooFewParticipants:
        discriminations = [None] * len(matrix.items)
    n = len(matrix.participants)
    p_values = [count / n for count in counts]
    item_stats = [
        {"item": item, "p_value": p_value, "discrimination": disc}
        for item, p_value, disc in zip(matrix.items, p_values, discriminations)
    ]

    report: dict = {
        "participants": len(matrix.participants),
        "items": len(matrix.items),
        "item_stats": item_stats,
        "mean_p_value": _mean_sd(p_values)[0],
    }
    if not groups:
        return report

    accuracy = {pid: total / len(matrix.items)
                for pid, total in zip(matrix.participants, totals)}
    by_group: dict[str, list[float]] = {}
    for pid in matrix.participants:
        label = groups.get(pid)
        if label is not None:
            by_group.setdefault(label, []).append(accuracy[pid])

    group_summary = {}
    for label in sorted(by_group):
        mean, sd = _mean_sd(by_group[label])
        group_summary[label] = {"n": len(by_group[label]), "mean": mean, "sd": sd}
    report["groups"] = group_summary

    labels = [lb for lb in sorted(by_group) if len(by_group[lb]) >= 2]
    samples = [by_group[lb] for lb in labels]
    if len(samples) >= 2:
        report["anova"] = one_way_anova(samples).to_dict()
        report["levene"] = levene_test(samples).to_dict()
        report["pairwise"] = pairwise_welch_bonferroni(samples, labels)
    return report
