from .graph import Edge, EdgeKind, GraphRegistry, GraphView, KnowledgeGraph, Node, NodeKind
from .snapshot import export_graph, import_graph

__all__ = [
    "Edge",
    "EdgeKind",
    "GraphRegistry",
    "GraphView",
    "KnowledgeGraph",
    "Node",
    "NodeKind",
    "export_graph",
    "import_graph",
]
