"""Exam blueprints: per-chapter item counts with a difficulty-tier split,
chapter allocation ratios, and largest-remainder apportionment."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..assessment import DifficultyTier, validate_overrides
from ..errors import AllZeroCounts, BadRatios, InvalidParams

TIER_ORDER = (
    DifficultyTier.BASIC_RECALL,
    DifficultyTier.APPLIED_UNDERSTANDING,
    DifficultyTier.COMPREHENSIVE_ANALYSIS,
)
_TIER_NAMES = frozenset(t.value for t in TIER_ORDER)


def allocation_ratios(counts: list[int]) -> list[float]:
    """Chapter fractions alpha_i = n_i / sum(n_j); the fractions sum to 1."""
    if any(n < 0 for n in counts):
        raise ValueError("counts must be >= 0")
    total = sum(counts)
    if total == 0:
        raise AllZeroCounts("at least one chapter count must be positive")
    return [n / total for n in counts]


def allocate_counts(ratios: list[float], total: int) -> list[int]:
    """Integer apportionment of ``total`` by largest remainder; ties go to
    the lowest index. Guarantees sum(counts) == total and
    |counts_i - ratios_i * total| < 1."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
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


def _json_count(value, what: str) -> int:
    """A count from a blueprint: int() would read 2.7 as 2, true as 1 and
    "3" as 3."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParams(f"{what} must be an integer, got {value!r}")
    return value


@dataclass
class BlueprintSection:
    chapter: str
    count: int
    tier_counts: dict[DifficultyTier, int]

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("section count must be >= 0")
        if any(v < 0 for v in self.tier_counts.values()):
            raise ValueError("tier counts must be >= 0")
        spread = sum(self.tier_counts.values())
        if spread != self.count:
            raise ValueError(
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
            raise ValueError("blueprint subject must be non-empty")
        if self.total < 1:
            raise ValueError("blueprint must request at least one item")
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
        if not isinstance(data, dict):
            raise ValueError("blueprint must be a JSON object")
        raw_sections = data.get("sections", [])
        if not isinstance(raw_sections, list):
            raise InvalidParams(f"sections must be a list, got {raw_sections!r}")
        sections = []
        for raw in raw_sections:
            if not (isinstance(raw, dict) and isinstance(raw.get("chapter"), str)
                    and isinstance(raw.get("tiers", {}), dict)):
                raise InvalidParams("a section must be an object with a chapter string "
                                    f"and a tiers object, got {raw!r}")
            tier_counts = {}
            for name, value in raw.get("tiers", {}).items():
                if name not in _TIER_NAMES:
                    raise InvalidParams(f"unknown tier {name!r}")
                tier_counts[DifficultyTier(name)] = _json_count(value, f"{name} count")
            sections.append(BlueprintSection(
                chapter=raw["chapter"],
                count=_json_count(raw.get("count"), "section count"),
                tier_counts=tier_counts,
            ))
        # check the raw values: float() raises a bare ValueError on "x" and
        # takes true as 1.0
        epsilon, weights = data.get("epsilon"), data.get("weights")
        validate_overrides(epsilon, weights)
        return cls(
            subject=data.get("subject", ""),
            sections=sections,
            epsilon=None if epsilon is None else float(epsilon),
            weights=None if weights is None else [float(w) for w in weights],
        )

    @classmethod
    def load(cls, path) -> "ExamBlueprint":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
