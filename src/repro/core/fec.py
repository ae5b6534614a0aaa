"""FEC-based loss recovery on a single link — the coding baseline.

Prior work ([36], Vergetis et al.) recovers WiFi loss with packet-level
coding instead of replication: every block of ``k`` data packets is
followed by one XOR parity packet, so any *single* loss within a block is
recoverable once the rest of the block (and the parity) arrive.

This is the natural competitor DiversiFi's related-work section contrasts
against: coding adds a fixed 1/k overhead whether or not losses occur and
— critically — cannot recover *burst* losses that exceed the code's
redundancy within a block, which is exactly the loss pattern WiFi
produces.  The evaluation shows cross-link replication dominating FEC on
bursty channels while costing less airtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.config import MAX_TOLERABLE_DELAY_S, StreamProfile
from repro.core.packet import LinkTrace
from repro.core.types import NamedRadioLink


@dataclass(frozen=True)
class FecConfig:
    """XOR-parity code parameters."""

    block_size: int = 5       # data packets per parity packet

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block size must be >= 1")


def apply_fec(data_trace: LinkTrace, parity_trace: LinkTrace,
              config: FecConfig = FecConfig()) -> LinkTrace:
    """Decode a stream protected by per-block XOR parity.

    ``data_trace`` holds the data packets' outcomes; ``parity_trace`` the
    parity packets' outcomes, one per block, indexed by block (only the
    first ``ceil(n/k)`` entries are used).  A lost data packet is
    recovered iff it is the only loss in its block, the block's parity
    arrived, and the decode completes within the MaxTolerableDelay budget
    of the packet's send time (recovery must wait for the whole block).
    """
    n = len(data_trace)
    k = config.block_size
    delivered = data_trace.delivered.copy()
    delays = data_trace.delays.copy()
    parity_arrivals = parity_trace.arrival_times

    for block_start in range(0, n, k):
        block = slice(block_start, min(block_start + k, n))
        block_idx = np.arange(block.start, block.stop)
        lost = block_idx[~data_trace.delivered[block]]
        if len(lost) != 1:
            continue            # nothing to do, or beyond the code
        block_no = block_start // k
        if block_no >= len(parity_trace) \
                or not parity_trace.delivered[block_no]:
            continue            # parity itself lost
        # Decode completes when the last needed symbol arrives.
        needed_arrivals = [data_trace.arrival_times[i]
                           for i in block_idx if i != lost[0]]
        needed_arrivals.append(parity_arrivals[block_no])
        decode_time = max(needed_arrivals)
        seq = int(lost[0])
        decode_delay = decode_time - data_trace.send_times[seq]
        if decode_delay <= MAX_TOLERABLE_DELAY_S + 1e-12:
            delivered[seq] = True
            delays[seq] = decode_delay
    return LinkTrace(f"{data_trace.name}+fec", data_trace.send_times,
                     delivered, delays)


def render_fec_run(link: NamedRadioLink, profile: StreamProfile
                   ) -> Tuple[LinkTrace, LinkTrace]:
    """Transmit a stream plus its parity packets over one link.

    Blocks have :func:`apply_fec`'s default size; the parity packet for
    block b is sent right after the block's last data packet.  Returns
    (data_trace, parity_trace) ready for :func:`apply_fec`.
    """
    n = profile.n_packets
    k = FecConfig().block_size
    spacing = profile.inter_packet_spacing_s
    send_times = np.arange(n) * spacing

    data_delivered = np.zeros(n, dtype=bool)
    data_delays = np.full(n, np.nan)
    n_blocks = (n + k - 1) // k
    parity_send = np.zeros(n_blocks)
    parity_delivered = np.zeros(n_blocks, dtype=bool)
    parity_delays = np.full(n_blocks, np.nan)

    for seq in range(n):
        send_time = float(send_times[seq])
        delivered, arrival = link.transmit(send_time,
                                           profile.packet_size_bytes)
        data_delivered[seq] = delivered
        if delivered:
            data_delays[seq] = arrival - send_time
        is_block_end = (seq % k == k - 1) or (seq == n - 1)
        if is_block_end:
            block_no = seq // k
            # Parity rides just behind the last data packet of the block.
            p_time = send_time + spacing * 0.5
            parity_send[block_no] = p_time
            delivered, arrival = link.transmit(p_time,
                                               profile.packet_size_bytes)
            parity_delivered[block_no] = delivered
            if delivered:
                parity_delays[block_no] = arrival - p_time

    data = LinkTrace(link.name, send_times, data_delivered, data_delays)
    parity = LinkTrace(f"{link.name}-parity", parity_send,
                       parity_delivered, parity_delays)
    return data, parity
