from .agents import AgentContext, AgentDescriptor, AgentHandle, Outgoing, spawn_agent
from .codec import MAX_FRAME_BYTES, FrameReader, decode_frame, encode_frame
from .core import Message, MessageBus, Subscription, topic_matches, validate_topic
from .pipeline import PipelineHandle, run_pipeline
from .tcp import TcpBusClient, TcpBusServer

__all__ = [
    "AgentContext",
    "AgentDescriptor",
    "AgentHandle",
    "FrameReader",
    "MAX_FRAME_BYTES",
    "Message",
    "MessageBus",
    "Outgoing",
    "PipelineHandle",
    "Subscription",
    "TcpBusClient",
    "TcpBusServer",
    "decode_frame",
    "encode_frame",
    "run_pipeline",
    "spawn_agent",
    "topic_matches",
    "validate_topic",
]
