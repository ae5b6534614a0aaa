"""Cloud-gaming stream model: frames, packetization, stall metrics.

The paper's introduction motivates DiversiFi with cloud gaming (OnLive,
PlayStation Now) alongside VoIP: interactive games need round trips
under ~100 ms [25], and a rendered frame is only useful if *all* of its
packets arrive before its display deadline.

This module models the downlink video of such a service:

* 60 fps frames; periodic large I-frames and smaller P-frames (sizes
  drawn lognormal around fixed means);
* frames packetized into MTU-sized packets at a paced spacing;
* frame-level scoring of a packet-level :class:`LinkTrace`: a frame
  renders iff every one of its packets arrived within the frame
  deadline; consecutive failed frames form a *stall*.

The packet grid this produces is compatible with the stream-profile
machinery, so the Section 4 strategies apply unchanged and the results
can be read in the currency gamers care about: stalls per minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.packet import LinkTrace, render_trace

#: video frame rate
FPS = 60.0
#: group-of-pictures length: one I-frame every ``GOP`` frames
GOP = 30
MEAN_P_FRAME_BYTES = 8_000     # ~4 Mbps at 60 fps
MEAN_I_FRAME_BYTES = 40_000
MTU_BYTES = 1200
#: a frame must be complete this long after its capture instant
FRAME_DEADLINE_S = 0.050


@dataclass(frozen=True)
class GameStreamProfile:
    """A cloud-gaming video stream."""

    duration_s: float = 60.0

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * FPS))

    @property
    def frame_interval_s(self) -> float:
        return 1.0 / FPS


@dataclass
class PacketizedGameStream:
    """The packet schedule of one game-stream realization."""

    profile: GameStreamProfile
    #: per-packet send times
    send_times: np.ndarray
    #: per-packet owning frame index
    frame_of_packet: np.ndarray
    #: per-frame capture instants
    frame_times: np.ndarray

    @property
    def n_packets(self) -> int:
        return int(self.send_times.size)


def packetize_game_stream(profile: GameStreamProfile,
                          rng: np.random.Generator
                          ) -> PacketizedGameStream:
    """Draw frame sizes and lay the packets on the wire.

    Packets of a frame are paced evenly across the frame interval
    (sender-side pacing, standard for game streaming to avoid bursts).
    """
    send_times: List[float] = []
    frame_of_packet: List[int] = []
    frame_times = np.arange(profile.n_frames) * profile.frame_interval_s
    for f in range(profile.n_frames):
        is_iframe = (f % GOP) == 0
        mean = MEAN_I_FRAME_BYTES if is_iframe else MEAN_P_FRAME_BYTES
        size = max(int(rng.lognormal(np.log(mean), 0.25)), 200)
        n_packets = max((size + MTU_BYTES - 1) // MTU_BYTES, 1)
        pacing = profile.frame_interval_s / (n_packets + 1)
        for p in range(n_packets):
            send_times.append(float(frame_times[f]) + (p + 1) * pacing)
            frame_of_packet.append(f)
    return PacketizedGameStream(
        profile=profile,
        send_times=np.asarray(send_times),
        frame_of_packet=np.asarray(frame_of_packet, dtype=int),
        frame_times=frame_times)


@dataclass
class GameSessionScore:
    """Frame-level outcome of one game session."""

    n_frames: int
    failed_frames: int
    stalls: List[int]            # lengths (in frames) of stall runs
    duration_s: float

    @property
    def frame_failure_rate(self) -> float:
        if self.n_frames == 0:
            return 0.0
        return self.failed_frames / self.n_frames

    @property
    def stalls_per_minute(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return len(self.stalls) / (self.duration_s / 60.0)

    @property
    def longest_stall_ms(self) -> float:
        if not self.stalls:
            return 0.0
        return max(self.stalls) * 1000.0 / FPS


def score_game_session(stream: PacketizedGameStream,
                       trace: LinkTrace) -> GameSessionScore:
    """Score a packet trace at frame granularity.

    ``trace`` must cover the stream's packets (same ordering).  A frame
    fails if any of its packets is lost or arrives after the frame
    deadline; >= 2 consecutive failed frames form a stall.
    """
    if len(trace) != stream.n_packets:
        raise ValueError("trace does not match the packet schedule")
    profile = stream.profile
    deadlines = (stream.frame_times[stream.frame_of_packet]
                 + FRAME_DEADLINE_S)
    arrivals = trace.arrival_times
    on_time = trace.delivered & (arrivals <= deadlines + 1e-12)

    frame_ok = np.ones(profile.n_frames, dtype=bool)
    bad_frames = np.unique(stream.frame_of_packet[~on_time])
    frame_ok[bad_frames] = False

    stalls: List[int] = []
    run = 0
    for ok in frame_ok:
        if not ok:
            run += 1
        else:
            if run >= 2:
                stalls.append(run)
            run = 0
    if run >= 2:
        stalls.append(run)
    return GameSessionScore(
        n_frames=profile.n_frames,
        failed_frames=int((~frame_ok).sum()),
        stalls=stalls,
        duration_s=profile.duration_s)


def transmit_game_stream(stream: PacketizedGameStream, link) -> LinkTrace:
    """Send the packet schedule over one link, in time order."""
    return render_trace(link, getattr(link, "name", "game"),
                        stream.send_times, MTU_BYTES)
