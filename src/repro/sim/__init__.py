"""Discrete-event simulation substrate.

Everything in the DiversiFi reproduction runs on this engine: channels,
MAC/AP behaviour, the single-NIC client, middleboxes, and traffic sources.
The engine is deliberately small — an event heap with a simulated clock and
deterministic tie-breaking — plus named, reproducible random streams.
Components schedule plain callbacks with ``call_at`` / ``call_in`` and
cancel them with ``cancel(handle)``.

Public API::

    from repro.sim import Simulator, RandomRouter

    sim = Simulator()
    sim.call_at(1.5, lambda: print("fired at", sim.now))
    sim.run(until=10.0)
"""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.random import RandomRouter
from repro.sim.sanitize import (
    DeterminismDigest,
    HeapOrderError,
    SanitizerError,
    StreamSharingError,
    sanitizer_enabled,
)

__all__ = [
    "DeterminismDigest",
    "HeapOrderError",
    "RandomRouter",
    "SanitizerError",
    "SimulationError",
    "Simulator",
    "StreamSharingError",
    "sanitizer_enabled",
]
