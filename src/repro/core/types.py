"""Shared typing vocabulary for the core package.

Centralizes the numpy array aliases (``mypy --strict`` rejects bare
``np.ndarray`` under ``disallow_any_generics``) and the structural
protocols the core algorithms are generic over — any object with a
``transmit(send_time, size_bytes) -> (delivered, arrival_time)`` method
is a usable link, whether it is a :class:`repro.channel.link.WifiLink`,
a cellular model, or a test stub.
"""

from __future__ import annotations

from typing import Protocol, Tuple

import numpy as np

try:
    import numpy.typing as npt
    FloatArray = npt.NDArray[np.float64]
    BoolArray = npt.NDArray[np.bool_]
except ImportError:  # pragma: no cover - numpy < 1.21
    FloatArray = np.ndarray          # type: ignore[misc]
    BoolArray = np.ndarray           # type: ignore[misc]


class RadioLink(Protocol):
    """Structural type of anything the core can send a packet copy over."""

    def transmit(self, send_time: float,
                 size_bytes: int) -> Tuple[bool, float]:
        """Send one copy: ``(delivered, arrival_time)``, known at once
        (MAC ACK); a lost copy's arrival time is NaN."""
        ...


class NamedRadioLink(RadioLink, Protocol):
    """A radio link that also carries a display name."""

    name: str


class ReplicaBuffer(Protocol):
    """The middlebox surface the client drives (Section 5.3.2)."""

    def start(self, flow_id: str) -> None:
        """Begin streaming the buffered replica through the secondary."""
        ...

    def stop(self, flow_id: str) -> None:
        """Halt streaming when the client returns to the primary."""
        ...
