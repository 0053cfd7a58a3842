from .agents import AgentDescriptor, AgentHandle, Outgoing, spawn_agent
from .codec import MAX_FRAME_BYTES, FrameReader, decode_frame, encode_frame
from .core import Message, MessageBus, Subscription, topic_matches, validate_topic
from .pipeline import PipelineHandle, run_pipeline
from .tcp import TcpBusClient, TcpBusServer
