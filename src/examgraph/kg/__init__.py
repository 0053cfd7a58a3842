from .graph import Edge, EdgeKind, GraphRegistry, GraphView, KnowledgeGraph, Node, NodeKind
from .snapshot import export_graph, import_graph
