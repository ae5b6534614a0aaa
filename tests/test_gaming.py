"""Tests for the cloud-gaming workload and frame-level scoring."""

import math

import numpy as np
import pytest

from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.packet import LinkTrace, merge_traces
from repro.sim import RandomRouter
from repro.traffic.gaming import (
    GOP,
    MTU_BYTES,
    GameStreamProfile,
    packetize_game_stream,
    score_game_session,
    transmit_game_stream,
)

PROFILE = GameStreamProfile(duration_s=5.0)


def rng(seed=0):
    return RandomRouter(seed).stream("game")


def perfect_trace(stream, delay=0.005):
    n = stream.n_packets
    return LinkTrace("ok", stream.send_times,
                     np.ones(n, dtype=bool), np.full(n, delay))


# ------------------------------------------------------------ packetization

def test_packetize_counts():
    stream = packetize_game_stream(PROFILE, rng())
    assert stream.n_packets > PROFILE.n_frames        # multi-packet frames
    assert stream.frame_of_packet.max() == PROFILE.n_frames - 1
    assert np.all(np.diff(stream.send_times) >= 0)    # time ordered


def test_iframes_are_bigger():
    stream = packetize_game_stream(PROFILE, rng(1))
    counts = np.bincount(stream.frame_of_packet)
    i_frames = counts[::GOP]
    p_frames = np.delete(counts, np.arange(0, len(counts), GOP))
    assert i_frames.mean() > 2 * p_frames.mean()


def test_bitrate_plausible():
    stream = packetize_game_stream(PROFILE, rng(2))
    # ~8 KB * 60 fps ~= 4 Mbps plus I-frame overhead.
    bitrate_bps = (stream.n_packets * MTU_BYTES * 8
                   / PROFILE.duration_s)
    assert 2e6 < bitrate_bps < 12e6


def test_packets_within_frame_paced():
    stream = packetize_game_stream(PROFILE, rng(3))
    first_frame = stream.send_times[stream.frame_of_packet == 0]
    assert np.all(np.diff(first_frame) > 0)
    assert first_frame.max() < PROFILE.frame_interval_s


# ------------------------------------------------------------------ scoring

def test_perfect_trace_no_failures():
    stream = packetize_game_stream(PROFILE, rng(4))
    score = score_game_session(stream, perfect_trace(stream))
    assert score.failed_frames == 0
    assert score.stalls == []
    assert score.frame_failure_rate == 0.0


def test_single_lost_packet_fails_its_frame():
    stream = packetize_game_stream(PROFILE, rng(5))
    trace = perfect_trace(stream)
    victim = stream.n_packets // 2
    trace.delivered[victim] = False
    score = score_game_session(stream, trace)
    assert score.failed_frames == 1
    assert score.stalls == []          # single frame is a glitch, not stall


def test_late_packet_fails_frame():
    stream = packetize_game_stream(PROFILE, rng(6))
    trace = perfect_trace(stream, delay=0.005)
    trace.delays[0] = 0.500            # way past the 50 ms deadline
    score = score_game_session(stream, trace)
    assert score.failed_frames >= 1


def test_consecutive_failures_form_stall():
    stream = packetize_game_stream(PROFILE, rng(7))
    trace = perfect_trace(stream)
    # Kill every packet of frames 10..14.
    for f in range(10, 15):
        trace.delivered[stream.frame_of_packet == f] = False
    score = score_game_session(stream, trace)
    assert score.stalls == [5]
    assert score.longest_stall_ms == pytest.approx(5 * 1000 / 60.0)
    assert score.stalls_per_minute > 0


def test_trace_mismatch_rejected():
    stream = packetize_game_stream(PROFILE, rng(8))
    with pytest.raises(ValueError):
        score_game_session(stream, perfect_trace(
            packetize_game_stream(GameStreamProfile(duration_s=2.0),
                                  rng(9))))


# -------------------------------------------------------------- end to end

def game_link(seed, name="g"):
    config = LinkConfig(
        name=name, ap_position=Position(0, 0),
        gilbert=GilbertParams(mean_good_s=2.0, mean_bad_s=0.3,
                              loss_good=0.0, loss_bad=0.97),
        base_delay_s=0.004)
    return WifiLink(config, RandomRouter(seed),
                    mobility=StaticPosition(Position(9, 0)))


def test_cross_link_reduces_stalls_end_to_end():
    stream = packetize_game_stream(PROFILE, rng(10))
    trace_a = transmit_game_stream(stream, game_link(20, "a"))
    trace_b = transmit_game_stream(stream, game_link(21, "b"))
    single = score_game_session(stream, trace_a)
    hedged = score_game_session(stream, merge_traces([trace_a, trace_b]))
    assert hedged.failed_frames <= single.failed_frames
    assert hedged.frame_failure_rate <= single.frame_failure_rate
