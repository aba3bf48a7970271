"""From-scratch discrete-event simulation kernel.

Everything in the repro library — network fabric, MPI ranks, GPUs, the
accelerator middleware, and the workloads — runs as generator processes on
this kernel's virtual clock.

Public surface::

    from repro.sim import Engine, Event, Timeout, Process
    from repro.sim import Resource, BandwidthShare
"""

from .engine import Engine
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .process import Process
from .resources import BandwidthShare, Resource

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "Process",
    "Resource",
    "BandwidthShare",
]
