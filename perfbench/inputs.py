"""Seeded inputs for the benchmark workloads.

Corpora keep the shape of the test suite's synthetic corpus: each chapter
files four concepts, each concept has five member facts linked by seven
fact sentences, and the four concept hubs are chained. Only the word roots
come from the seed. Roots are distinct three-letter consonant-vowel-consonant
strings, so every seed gives other words but the same node and edge counts,
the same ranking ties and the same accept/reject pattern in generation.
"""

from __future__ import annotations

import random

from examgraph.assessment import IrtParams, irt_probability
from examgraph.ingestion import SourceDocument
from examgraph.psychometrics import ResponseMatrix

CONCEPTS_PER_CHAPTER = 4
FACT_SUFFIXES = ("ite", "ium", "ase", "oid", "ene")
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

TIERS = {"basic": 4, "applied": 3, "comprehensive": 3}


def draw_roots(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct roots in seeded order."""
    roots: list[str] = []
    seen: set[str] = set()
    while len(roots) < count:
        root = rng.choice(_CONSONANTS) + rng.choice(_VOWELS) + rng.choice(_CONSONANTS)
        if root not in seen:
            seen.add(root)
            roots.append(root)
    return roots


def _chapter_facts(roots: list[str]) -> list[tuple[str, list[str]]]:
    return [(f"{root}lore", [f"{root}{suffix}" for suffix in FACT_SUFFIXES])
            for root in roots]


def _chapter_sentences(concepts: list[tuple[str, list[str]]]) -> list[list[str]]:
    """Sentences per concept, then one trailing group chaining the hubs."""
    groups = []
    for _, facts in concepts:
        hub = facts[0]
        sentences = [f"The {hub} supports the {other}." for other in facts[1:]]
        sentences.append(f"The {facts[1]} needs the {facts[2]}.")
        sentences.append(f"The {facts[3]} affects the {hub}.")
        groups.append(sentences)
    groups.append([
        f"The {concepts[j][1][0]} affects the "
        f"{concepts[(j + 1) % len(concepts)][1][0]}."
        for j in range(len(concepts))
    ])
    return groups


def _plain_body(concepts) -> str:
    sentences = [s for group in _chapter_sentences(concepts) for s in group]
    half = len(sentences) // 2
    return " ".join(sentences[:half]) + "\n\n" + " ".join(sentences[half:])


def _markdown_body(chapter: str, concepts) -> str:
    """Headings, bullets and emphasis for transcription to strip. Headings
    end in a full stop so they never run into the first fact sentence."""
    groups = _chapter_sentences(concepts)
    lines = [f"# Notes for {chapter}.", ""]
    for (concept, _), sentences in zip(concepts, groups):
        lines += [f"## On the {concept}.", ""]
        for sentence in sentences:
            words = sentence.split()
            words[1] = f"**{words[1]}**"
            lines.append("- " + " ".join(words))
        lines.append("")
    lines += ["## Links between hubs.", "", *(f"> {s}" for s in groups[-1]), ""]
    return "\n".join(lines)


def corpus(subject: str, roots: list[str], chapters: int, markdown: bool = False
           ) -> tuple[list[SourceDocument], dict[str, list[str]]]:
    """One document per chapter ``Ch 1`` .. ``Ch n`` plus the hypernym
    lexicon mapping every fact to its concept."""
    if len(roots) < chapters * CONCEPTS_PER_CHAPTER:
        raise ValueError("not enough roots for the requested chapters")
    lexicon: dict[str, list[str]] = {}
    documents = []
    for c in range(chapters):
        chapter = f"Ch {c + 1}"
        concepts = _chapter_facts(
            roots[c * CONCEPTS_PER_CHAPTER:(c + 1) * CONCEPTS_PER_CHAPTER])
        for concept, facts in concepts:
            for fact in facts:
                lexicon[fact] = [concept]
        documents.append(SourceDocument(
            doc_id=f"{subject}-doc{c + 1}",
            subject=subject,
            chapter_path=[chapter],
            body=(_markdown_body(chapter, concepts) if markdown
                  else _plain_body(concepts)),
            format="markdown" if markdown else "plain",
        ))
    return documents, lexicon


def blueprint(subject: str, chapters: list[int]) -> dict:
    """Ten items per listed chapter, split 4/3/3 across the tiers."""
    return {
        "subject": subject,
        "sections": [
            {"chapter": f"Ch {c}", "count": sum(TIERS.values()), "tiers": dict(TIERS)}
            for c in chapters
        ],
    }


_TIER_DIFFICULTY = {"basic": -1.0, "applied": 0.0, "comprehensive": 1.0}
GROUP_ABILITY = {"g1": -0.5, "g2": 0.0, "g3": 0.5}


def simulate_responses(rng: random.Random, items: list[dict], respondents: int
                       ) -> tuple[str, dict[str, str]]:
    """A 3PL-simulated 0/1 response CSV for an exam's items and the
    participant-to-group map. Item difficulty follows the item's tier,
    guessing is 1/4 for four options, ability is normal around the
    group's mean."""
    params = [
        IrtParams(a=rng.uniform(0.6, 2.0),
                  b=_TIER_DIFFICULTY[item["tier"]] + rng.uniform(-0.5, 0.5),
                  c=0.25)
        for item in items
    ]
    labels = sorted(GROUP_ABILITY)
    participants, rows, groups = [], [], {}
    for p in range(respondents):
        pid = f"p{p:04d}"
        label = labels[p % len(labels)]
        theta = rng.gauss(GROUP_ABILITY[label], 1.0)
        participants.append(pid)
        groups[pid] = label
        rows.append([1 if rng.random() < irt_probability(theta, prm) else 0
                     for prm in params])
    matrix = ResponseMatrix(participants, [item["id"] for item in items], rows)
    return matrix.to_csv(), groups
