from .blueprint import (
    TIER_ORDER,
    BlueprintSection,
    ExamBlueprint,
    allocate_counts,
    allocation_ratios,
)
from .exam import (
    Candidate,
    Exam,
    ExamSession,
    SlotRef,
    generate_exam,
    pretty_json,
)
from .generator import (
    DEFAULT_TIER_BLOOM,
    GENERATION_SYSTEM_PROMPT,
    Generator,
    LLMGenerator,
    Provenance,
    QuestionItem,
    TemplateGenerator,
    generate_candidate,
)
from .material import MaterialBundle, assemble_material
