"""Exception hierarchy shared by all examgraph modules.

Every error carries a stable ``code`` string so the CLI (and the agent
runtime's ``system/errors`` topic) can emit machine-readable reports.
"""


class ExamGraphError(Exception):
    """Base for all domain errors raised by this package."""

    code = "error"


# --- knowledge graph store ---

class EmptySubject(ExamGraphError):
    code = "empty_subject"


class DuplicateSubject(ExamGraphError):
    code = "duplicate_subject"


class UnknownSubject(ExamGraphError):
    code = "unknown_subject"


class EmptyLabel(ExamGraphError):
    code = "empty_label"


class KindMismatch(ExamGraphError):
    code = "kind_mismatch"


class UnknownNode(ExamGraphError):
    code = "unknown_node"


class SubjectCollision(ExamGraphError):
    code = "subject_collision"


class MalformedSnapshot(ExamGraphError):
    code = "malformed_snapshot"

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


# --- ingestion ---

class UnsupportedFormat(ExamGraphError):
    code = "unsupported_format"


class ExtractorFailure(ExamGraphError):
    code = "extractor_failure"


class InvalidExtraction(ExamGraphError):
    code = "invalid_extraction"


# --- ranking ---

class EmptyGraph(ExamGraphError):
    code = "empty_graph"


class NotAHierarchyNode(ExamGraphError):
    code = "not_a_hierarchy_node"


class NotAConcept(ExamGraphError):
    code = "not_a_concept"


# --- assessment ---

class InvalidParams(ExamGraphError, ValueError):
    code = "invalid_params"


class MalformedItem(ExamGraphError):
    code = "malformed_item"


class AllZeroWeights(ExamGraphError):
    code = "all_zero_weights"


# --- generation ---

class AllZeroCounts(ExamGraphError):
    code = "all_zero_counts"


class BadRatios(ExamGraphError):
    code = "bad_ratios"


class NoConceptsInChapter(ExamGraphError):
    code = "no_concepts_in_chapter"


class GeneratorFailure(ExamGraphError):
    code = "generator_failure"


class MalformedCandidate(ExamGraphError):
    code = "malformed_candidate"


class InsufficientMaterial(ExamGraphError):
    code = "insufficient_material"


# --- psychometrics ---

class UnknownItem(ExamGraphError):
    code = "unknown_item"


class TooFewParticipants(ExamGraphError):
    code = "too_few_participants"


class DegenerateInput(ExamGraphError):
    code = "degenerate_input"


class UnbalancedDesign(ExamGraphError):
    code = "unbalanced_design"


class DomainError(ExamGraphError):
    code = "domain_error"


# --- agent runtime ---

class WildcardPublish(ExamGraphError):
    code = "wildcard_publish"


class BusClosed(ExamGraphError):
    code = "bus_closed"


class BadPattern(ExamGraphError):
    code = "bad_pattern"


class DuplicateName(ExamGraphError):
    code = "duplicate_name"


class FrameTooLarge(ExamGraphError):
    code = "frame_too_large"


class MalformedFrame(ExamGraphError):
    code = "malformed_frame"


# --- llm gateway ---

class AuthError(ExamGraphError):
    code = "auth_error"


class RateLimited(ExamGraphError):
    code = "rate_limited"


class GatewayTimeout(ExamGraphError):
    code = "timeout"


class MalformedResponse(ExamGraphError):
    code = "malformed_response"
