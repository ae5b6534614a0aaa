"""Shared typing vocabulary for the core package.

Centralizes the numpy array aliases (``mypy --strict`` rejects bare
``np.ndarray`` under ``disallow_any_generics``) and the structural
protocols the core algorithms are generic over — any object with a
``transmit``/``rssi_dbm`` surface is a usable link, whether it is a
:class:`repro.wifi.link.WifiLink`, a cellular model, or a test stub.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

if TYPE_CHECKING:
    from repro.core.packet import DeliveryRecord

try:
    import numpy.typing as npt
    FloatArray = npt.NDArray[np.float64]
    BoolArray = npt.NDArray[np.bool_]
except ImportError:  # pragma: no cover - numpy < 1.21
    FloatArray = np.ndarray          # type: ignore[misc]
    BoolArray = np.ndarray           # type: ignore[misc]


class RadioLink(Protocol):
    """Structural type of anything the core can send a packet copy over."""

    def transmit(self, seq: int, time: float,
                 size_bytes: int) -> "DeliveryRecord":
        """Send one copy; the outcome is known immediately (MAC ACK)."""
        ...

    def rssi_dbm(self, time_s: float) -> float:
        """Received signal strength the client would measure at ``time_s``."""
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
