"""Traffic substrate: real-time stream sources and the Reno-style TCP
source used as the competing flow in Figure 10."""

from repro.traffic.voip import VoipSender
from repro.traffic.tcp import TcpReno, TcpStats

__all__ = [
    "TcpReno",
    "TcpStats",
    "VoipSender",
]
