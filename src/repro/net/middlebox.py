"""The buffering middlebox of the "Unmodified AP" architecture.

A Click-style userspace forwarder (the paper's implementation: Click V2.1
on a quad-core i7): per-flow shallow head-drop buffers fed by the SDN
switch's replica stream.  The client, upon missing a packet on the primary
link, switches to the secondary AP and sends a **start** message; the
middlebox streams its buffered packets through the (stock, unmodified)
secondary AP until it receives **stop**.  This start-stop protocol is what
the paper's current implementation uses instead of precise per-sequence
selection, and is why the middlebox can still duplicate a few packets.

Drain semantics (the data-plane contract the control plane builds on):

* a **start** drains the buffer through the secondary AP at a light
  per-packet spacing, then streams live replicas;
* a **stop** arriving mid-drain cancels the in-flight forwards and puts
  the undelivered packets *back into the buffer* (head-dropping and
  counting if they no longer fit) — packets are forwarded, re-buffered
  or counted in ``buffer_drops``, never silently discarded;
* live replicas arriving while a drain is still pending are serialized
  *behind* it, so delivery to the secondary AP is sequence-monotone.

Service latency grows gently with the number of concurrent replicated
flows (Section 6.4: +1.1 ms at 1000 streams).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.config import MiddleboxConfig
from repro.core.packet import Packet
from repro.sim.engine import Simulator

#: base processing + LAN forwarding latency (Table 3: ~2 ms network,
#: ~0.9 ms queuing at the middlebox)
BASE_NETWORK_DELAY_S = 0.0020
BASE_QUEUING_DELAY_S = 0.0009
#: incremental delay per concurrent replicated stream (Section 6.4:
#: +1.1 ms at 1000 streams)
PER_STREAM_DELAY_S = 1.1e-6
#: per-packet spacing of a buffer drain (light serialization, well under
#: the 20 ms media spacing)
DRAIN_SPACING_S = 0.0002


@dataclass
class MiddleboxStats:
    """Counters for Table 3 / Section 6.4 accounting."""

    buffered: int = 0
    buffer_drops: int = 0
    forwarded: int = 0
    #: drained packets put back into the buffer by a mid-drain stop
    rebuffered: int = 0
    start_messages: int = 0
    stop_messages: int = 0


class _FlowBuffer:
    """Per-flow shallow head-drop buffer plus delivery state."""

    def __init__(self, depth: int):
        self.depth = depth
        self.queue: Deque[Packet] = deque()
        self.streaming = False
        #: forwards scheduled but not yet delivered, in delivery order
        self.pending: Deque[Tuple[List[Any], Packet]] = deque()
        #: absolute sim time of the last scheduled pending forward
        self.tail_time = 0.0


class Middlebox:
    """Buffering and start/stop retrieval for replicated real-time flows."""

    def __init__(self, sim: Simulator,
                 config: Optional[MiddleboxConfig] = None):
        self.sim = sim
        # A fresh config per instance: a shared default-argument instance
        # would alias every default-constructed middlebox to one object
        # (a stateful default shared by every call).
        self.config = config if config is not None else MiddleboxConfig()
        self.stats = MiddleboxStats()
        self._flows: Dict[str, _FlowBuffer] = {}
        self._sinks: Dict[str, Callable[[Packet], None]] = {}
        #: concurrent replicated streams registered (drives load latency)
        self.registered_streams = 0

    # ------------------------------------------------------------------
    # control plane

    def register_flow(self, flow_id: str,
                      sink: Callable[[Packet], None]) -> None:
        """Start replicating ``flow_id``; buffered copies go to ``sink``
        (the secondary AP's wired ingress) while streaming is on."""
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} already registered")
        self._flows[flow_id] = _FlowBuffer(self.config.buffer_len)
        self._sinks[flow_id] = sink
        self.registered_streams += 1

    def service_delay_s(self) -> float:
        """Current per-request latency: base + load-dependent component."""
        return (BASE_NETWORK_DELAY_S + BASE_QUEUING_DELAY_S
                + PER_STREAM_DELAY_S * self.registered_streams)

    # ------------------------------------------------------------------
    # data plane

    def replica_arrival(self, packet: Packet) -> None:
        """A replica copy arrived from the SDN switch."""
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            return
        if flow.streaming:
            if flow.pending:
                # A drain is still in flight: serialize the live copy
                # behind it so delivery stays sequence-monotone (a live
                # forward overtaking still-scheduled buffered packets
                # would reorder the secondary AP's stream).
                self._schedule_forward(flow, packet, flow.tail_time
                                       + DRAIN_SPACING_S - self.sim.now)
                return
            # No drain pending: forward straight through.
            self._forward(packet)
            return
        if len(flow.queue) >= flow.depth:
            flow.queue.popleft()  # head drop
            self.stats.buffer_drops += 1
        flow.queue.append(packet)
        self.stats.buffered += 1

    def start(self, flow_id: str) -> None:
        """Client's start message: drain the buffer, then stream live."""
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"unknown flow {flow_id!r}")
        self.stats.start_messages += 1
        flow.streaming = True
        delay = self.service_delay_s()
        drained = list(flow.queue)
        flow.queue.clear()
        for i, packet in enumerate(drained):
            # Serialize the drain at a light per-packet spacing.
            self._schedule_forward(flow, packet,
                                   delay + i * DRAIN_SPACING_S)

    def stop(self, flow_id: str) -> None:
        """Client's stop message: back to buffering.

        Packets still in flight from a pending drain are cancelled and
        put back into the buffer in order (head-dropping and counting
        any that no longer fit) — the old protocol let them fall on the
        floor uncounted.
        """
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(f"unknown flow {flow_id!r}")
        self.stats.stop_messages += 1
        flow.streaming = False
        if flow.pending:
            # Pending forwards are older than anything buffered since
            # (the buffer is only fed while not streaming), so they go
            # back at the head, in their original order.
            for event, packet in reversed(flow.pending):
                self.sim.cancel(event)
                flow.queue.appendleft(packet)
                self.stats.rebuffered += 1
            flow.pending.clear()
            while len(flow.queue) > flow.depth:
                flow.queue.popleft()  # head drop
                self.stats.buffer_drops += 1

    # ------------------------------------------------------------------
    # internals

    def _schedule_forward(self, flow: _FlowBuffer, packet: Packet,
                          delay: float) -> None:
        """Queue one pending forward, keeping per-flow delivery FIFO."""
        time = self.sim.now + max(delay, 0.0)
        if flow.pending:
            time = max(time, flow.tail_time + DRAIN_SPACING_S)
        event = self.sim.call_at(time, self._deliver_pending, flow)
        flow.pending.append((event, packet))
        flow.tail_time = time

    def _deliver_pending(self, flow: _FlowBuffer) -> None:
        """Fire the oldest pending forward (events fire in FIFO order
        because :meth:`_schedule_forward` keeps times non-decreasing)."""
        if not flow.pending:
            return
        _, packet = flow.pending.popleft()
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        self.stats.forwarded += 1
        sink = self._sinks.get(packet.flow_id)
        if sink is not None:
            sink(packet)
