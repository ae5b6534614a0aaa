"""Traffic substrate: real-time stream sources and the Reno-style TCP
source used as the competing flow in Figure 10."""

from repro.traffic.voip import VoipSender
from repro.traffic.gaming import (
    GameStreamProfile,
    packetize_game_stream,
    score_game_session,
    transmit_game_stream,
)
from repro.traffic.tcp import TcpReno, TcpStats

__all__ = [
    "GameStreamProfile",
    "TcpReno",
    "TcpStats",
    "VoipSender",
    "packetize_game_stream",
    "score_game_session",
    "transmit_game_stream",
]
