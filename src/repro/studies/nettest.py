"""The NetTest distributed measurement study (Section 3.2, Table 2).

274 WiFi-connected participants across 22 countries plus 10 well-connected
Azure nodes ran VoIP-like streams (64 kbps, 20 ms spacing, 2 minutes)
between orchestrated pairs: WiFi client <-> Azure node ("EW"), WiFi client
<-> WiFi client ("WW"), each either direct or through a cloud relay.  The
relays in the paper's deployment were overloaded, which is why relayed
categories show dramatically higher PCR — the model keeps that artifact.

Per-call pipeline: each WiFi endpoint contributes a bursty loss process
(drawn from a per-client quality distribution — some homes are just bad),
the WAN contributes base delay plus jitter, relays add overload delay
spikes; the trace is scored through the same G.711/playout/E-model
pipeline as everything else.  The playout buffer adapts to the path's base
delay, so only *jitter* beyond the buffer causes late losses, while the
base delay enters the E-model's delay impairment.

Block protocol
--------------

Like the provider study, call randomness is block-structured for
population scale: the schedule (category per global call index, in
:data:`CATEGORY_COUNTS` order) is a pure function of ``scale``; the
shared per-client state comes from the root router's
``"nettest.clients"`` stream; and call ``i`` draws everything else from
its *own* stream ``f"call-{j}"`` of block ``i // NETTEST_BLOCK``'s
private router.  Each call's trace simulation is data-dependent (the
Gilbert chain and busy-spell loops consume a variable number of draws),
which is exactly why every call gets a private stream: any block — and
any call within it — can be rendered independently, in any process.
:func:`repro.studies.population.nettest_population_study` shards the
blocks through the runner and merges them into Table 2
(``repro table2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.channel.gilbert import GilbertParams, sample_loss_array
from repro.core.config import G711_PROFILE
from repro.core.packet import LinkTrace
from repro.sim.random import RandomRouter
from repro.voice.pcr import POOR_MOS_THRESHOLD, score_call

#: the paper's call-category counts (Table 2)
CATEGORY_COUNTS = {
    "EW": 6953,
    "WW": 1240,
    "EW-Relayed": 798,
    "WW-Relayed": 233,
}

N_CLIENTS = 274
N_AZURE_NODES = 10

#: calls per protocol block — the unit the population backend shards,
#: caches and streams (each call is a full 2-minute trace simulation,
#: so blocks are much smaller than the provider study's).
NETTEST_BLOCK = 64


@dataclass
class NetTestCall:
    """One simulated call and its score."""

    category: str
    client_a: int
    client_b: int          # -1 for an Azure endpoint
    mos: float

    @property
    def poor(self) -> bool:
        return self.mos < POOR_MOS_THRESHOLD


def _client_gilbert(rng: np.random.Generator) -> GilbertParams:
    """One participant's home-WiFi loss process.

    Heavy-tailed across the population: the median home loses ~0.7% of
    packets in bursts; the worst decile is far worse.
    """
    bad_frac = float(np.exp(rng.normal(np.log(0.008), 1.2)))
    bad_frac = min(bad_frac, 0.4)
    mean_bad = float(rng.uniform(0.1, 0.6))
    mean_good = mean_bad * (1.0 - bad_frac) / max(bad_frac, 1e-4)
    return GilbertParams(
        mean_good_s=mean_good, mean_bad_s=mean_bad,
        loss_good=float(rng.uniform(0.0, 0.002)),
        loss_bad=float(rng.uniform(0.5, 0.95)))


def _wan_jitter(rng: np.random.Generator, n: int,
                relayed: bool) -> np.ndarray:
    """Per-packet delay beyond the path's base (playout-adapted) delay."""
    jitter = rng.lognormal(mean=np.log(0.004), sigma=0.8, size=n)
    if relayed:
        # Overloaded relay: queueing comes in correlated busy spells whose
        # per-call severity varies with the relay's instantaneous load
        # (the paper calls the relayed PCR "an artifact of the overloading
        # of the relay nodes").  Many relayed calls squeak through; badly
        # timed ones are wrecked.
        severity = float(rng.beta(0.9, 2.0)) * 0.20
        if severity > 0.005:
            busy = _busy_spells(rng, n, busy_prob=severity, mean_spell=40)
            jitter = jitter + busy * rng.exponential(0.180, size=n)
    return jitter


def _busy_spells(rng: np.random.Generator, n: int, busy_prob: float,
                 mean_spell: int) -> np.ndarray:
    """A 0/1 on-off series with geometric spell lengths (overload comes
    and goes on multi-second timescales, not per packet).

    Busy spells average ``mean_spell`` packets; idle spells are sized so
    the long-run busy fraction is ``busy_prob``.
    """
    idle_mean = mean_spell * (1.0 - busy_prob) / busy_prob
    out = np.zeros(n)
    i = 0
    busy = rng.random() < busy_prob
    while i < n:
        mean = mean_spell if busy else idle_mean
        length = max(int(rng.geometric(1.0 / mean)), 1)
        if busy:
            out[i:i + length] = 1.0
        i += length
        busy = not busy
    return out


# ---------------------------------------------------------------------------
# block protocol

@dataclass(frozen=True)
class ClientState:
    """Shared per-participant state (quality processes, base delays).

    Drawn once per population from the root router's
    ``"nettest.clients"`` stream; every block, in any process, rebuilds
    the identical state.
    """

    quality: Tuple[GilbertParams, ...]
    base_delay: np.ndarray


def client_state(seed: int) -> ClientState:
    """Draw the 274 participants' loss processes and base delays."""
    stream = RandomRouter(seed).stream("nettest.clients")
    quality = tuple(_client_gilbert(stream) for _ in range(N_CLIENTS))
    #: base one-way delay per client to the nearest relay/peer region
    base_delay = stream.uniform(0.020, 0.120, size=N_CLIENTS)
    return ClientState(quality=quality, base_delay=base_delay)


def call_schedule(scale: float) -> List[Tuple[str, int]]:
    """``(category, n_calls)`` in :data:`CATEGORY_COUNTS` order.

    ``scale`` < 1 shrinks every category proportionally (for quick
    tests); every category keeps at least one call.
    """
    return [(category, max(int(round(count * scale)), 1))
            for category, count in CATEGORY_COUNTS.items()]


def schedule_size(scale: float) -> int:
    """Total calls in the scaled schedule."""
    return sum(count for _, count in call_schedule(scale))


def category_of_index(index: int, scale: float) -> str:
    """Category of global call ``index`` under the scaled schedule."""
    offset = 0
    for category, count in call_schedule(scale):
        offset += count
        if index < offset:
            return category
    raise IndexError(
        f"call {index} outside the {offset}-call schedule")


def nettest_block_router(seed: int, block: int) -> RandomRouter:
    """The private router of call block ``block``."""
    return RandomRouter(seed).fork(f"nettest-block-{block}")


def simulate_call(category: str, rng: np.random.Generator,
                  clients: ClientState) -> NetTestCall:
    """Simulate and score one call from its private stream.

    The draw order within the stream is fixed (endpoint picks, loss
    processes, jitter, path extras); the *number* of draws is
    data-dependent, which is why the stream is private to the call.
    """
    n = G711_PROFILE.n_packets
    spacing = G711_PROFILE.inter_packet_spacing_s
    relayed = "Relayed" in category
    two_wifi = category.startswith("WW")

    a = int(rng.integers(0, N_CLIENTS))
    if two_wifi:
        b = int(rng.integers(0, N_CLIENTS))
    else:
        b = -1

    losses = sample_loss_array(clients.quality[a], n, spacing, rng)
    if two_wifi:
        losses = np.maximum(
            losses,
            sample_loss_array(clients.quality[b], n, spacing, rng))
    jitter = _wan_jitter(rng, n, relayed)
    delivered = losses < 0.5
    delays = np.where(delivered, jitter, np.nan)
    trace = LinkTrace(category,
                      np.arange(n) * spacing, delivered, delays)

    base_delay = float(clients.base_delay[a])
    if not two_wifi:
        # Azure endpoints sit in distant datacenters; the paper's
        # orchestration often crossed continents.
        base_delay += float(rng.uniform(0.020, 0.080))
    if relayed:
        base_delay += 0.060   # extra relay hop
    score = score_call(trace, extra_one_way_delay_s=base_delay)
    return NetTestCall(category=category, client_a=a, client_b=b,
                       mos=score.mos)


def render_nettest_block(block: int, count: int, seed: int,
                         clients: ClientState, scale: float
                         ) -> List[NetTestCall]:
    """Render calls ``[block * NETTEST_BLOCK, ... + count)`` in order."""
    router = nettest_block_router(seed, block)
    calls: List[NetTestCall] = []
    for local in range(count):
        index = block * NETTEST_BLOCK + local
        category = category_of_index(index, scale)
        calls.append(simulate_call(
            category, router.stream(f"call-{local}"), clients))
    return calls
