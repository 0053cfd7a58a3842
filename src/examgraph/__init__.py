"""examgraph: per-subject knowledge graphs, difficulty-controlled MCQ
generation, and psychometric item analysis, wired together by a
publish-subscribe agent runtime."""

from . import assessment, bus, errors, gateway, generation, ingestion, kg
from . import psychometrics, ranking

__version__ = "0.1.0"
