"""Simulated MPI layer: communicators and tagged point-to-point messaging.

Carries real Python payloads over the simulated fabric with eager /
rendezvous protocol semantics and wildcard matching — the MPI subset the
middleware speaks.  A message is one object: an eager ``isend`` returns
its :class:`Message`, which is also its flow over the fabric and the
send's completion event; a receive :class:`Request` is its own.
"""

from .comm import (
    CONTROL_BYTES,
    HEADER_BYTES,
    MAX_USER_TAG,
    Communicator,
    Message,
    RankHandle,
    Request,
    World,
)
from .datatypes import Phantom, copy_for_send, payload_nbytes
from .matching import ANY_SOURCE, ANY_TAG

__all__ = [
    "World",
    "Communicator",
    "RankHandle",
    "Request",
    "Message",
    "Phantom",
    "payload_nbytes",
    "copy_for_send",
    "ANY_SOURCE",
    "ANY_TAG",
    "HEADER_BYTES",
    "CONTROL_BYTES",
    "MAX_USER_TAG",
]
