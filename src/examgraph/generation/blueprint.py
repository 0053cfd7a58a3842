"""Exam blueprints: per-chapter item counts with a difficulty-tier split,
chapter allocation ratios, and largest-remainder apportionment."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..assessment import DifficultyTier, validate_overrides
from ..checks import array, integer, json_file, member, obj, string
from ..errors import AllZeroCounts, BadRatios, InvalidParams

TIER_ORDER = (
    DifficultyTier.BASIC_RECALL,
    DifficultyTier.APPLIED_UNDERSTANDING,
    DifficultyTier.COMPREHENSIVE_ANALYSIS,
)


def allocation_ratios(counts: list[int]) -> list[float]:
    """Chapter fractions alpha_i = n_i / sum(n_j); the fractions sum to 1."""
    for n in counts:
        integer(n, "chapter count", low=0)
    total = sum(counts)
    if total == 0:
        raise AllZeroCounts("at least one chapter count must be positive")
    return [n / total for n in counts]


def allocate_counts(ratios: list[float], total: int) -> list[int]:
    """Integer apportionment of ``total`` by largest remainder; ties go to
    the lowest index. Guarantees sum(counts) == total and
    |counts_i - ratios_i * total| < 1."""
    integer(total, "total", low=1)
    if not ratios or any(r < 0 for r in ratios):
        raise BadRatios("ratios must be non-negative and non-empty")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(ratios)}")
    exact = [r * total for r in ratios]
    counts = [math.floor(e) for e in exact]
    leftover = total - sum(counts)
    remainders = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


@dataclass
class BlueprintSection:
    chapter: str
    count: int
    tier_counts: dict[DifficultyTier, int]

    def __post_init__(self):
        if self.count < 0:
            raise InvalidParams("section count must be >= 0")
        if any(v < 0 for v in self.tier_counts.values()):
            raise InvalidParams("tier counts must be >= 0")
        spread = sum(self.tier_counts.values())
        if spread != self.count:
            raise InvalidParams(
                f"section {self.chapter!r}: tier counts sum to {spread}, "
                f"expected {self.count}")


@dataclass(frozen=True)
class ExamBlueprint:
    subject: str
    sections: list[BlueprintSection]
    epsilon: float | None = None
    weights: list[float] | None = None

    def __post_init__(self):
        if not self.subject:
            raise InvalidParams("blueprint subject must be non-empty")
        if self.total < 1:
            raise InvalidParams("blueprint must request at least one item")
        validate_overrides(self.epsilon, self.weights)

    @property
    def total(self) -> int:
        return sum(s.count for s in self.sections)

    def ratios(self) -> list[float]:
        return allocation_ratios([s.count for s in self.sections])

    def to_dict(self) -> dict:
        data: dict = {
            "subject": self.subject,
            "sections": [
                {
                    "chapter": s.chapter,
                    "count": s.count,
                    "tiers": {t.value: s.tier_counts.get(t, 0) for t in TIER_ORDER},
                }
                for s in self.sections
            ],
        }
        if self.epsilon is not None:
            data["epsilon"] = self.epsilon
        if self.weights is not None:
            data["weights"] = list(self.weights)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExamBlueprint":
        # check the raw values: int() would read 2.7 as 2 and "3" as 3,
        # float() raises a bare ValueError on "x", and both take true as 1
        data = obj(data, "blueprint")
        sections = []
        for raw in array(data.get("sections", []), "sections"):
            raw = obj(raw, "section")
            sections.append(BlueprintSection(
                chapter=string(raw.get("chapter"), "section chapter"),
                count=integer(raw.get("count"), "section count"),
                tier_counts={member(name, "tier", DifficultyTier): integer(value, f"{name} count")
                             for name, value in obj(raw.get("tiers", {}), "tiers").items()},
            ))
        epsilon, weights = data.get("epsilon"), data.get("weights")
        validate_overrides(epsilon, weights)
        return cls(
            subject=string(data.get("subject", ""), "subject"),
            sections=sections,
            epsilon=None if epsilon is None else float(epsilon),
            weights=None if weights is None else [float(w) for w in weights],
        )

    @classmethod
    def load(cls, path) -> "ExamBlueprint":
        return cls.from_dict(json_file(path, "blueprint"))

    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
