"""Whole-population trace rendering as numpy arrays.

Renders *B sessions x 2 links x T packet-slots* in one shot:
Gilbert–Elliott spans, path loss and shadowing, mobility / environment
drift (piecewise-constant slow state on the shadowing-update grid),
Rayleigh / Rician fading, shared and per-link interference processes,
MIMO selection diversity, temporal-offset replica copies — and,
crucially, the *per-attempt* structure of the MAC retry burst.  A single
static link without interference is the special case
:func:`render_session` handles with a hand-built
:class:`~repro.scenarios.ScenarioSetup`.  The event MAC re-evaluates the
channel at every retry, and the burst (mean exponential backoff plus
airtime, ~15 ms end to end) straddles mains half-cycles of a microwave
oven and the tail of a deep Rayleigh fade; collapsing it to
``p_slot^(R+1)`` overestimates loss severalfold in fading- or
oven-dominated regimes.  The renderer therefore evaluates loss on
``(RETRY_LIMIT + 1) x T`` attempt-time matrices: fading is evolved
across the burst with per-gap AR(1) steps, and Gilbert / oven /
congestion state is sampled at each attempt's expected transmit time.

Determinism contract (the paired-comparison methodology): every random
quantity is drawn from the *same* named :class:`~repro.sim.random.RandomRouter`
streams the event path uses, so the slow channel state is sample-path
identical between backends for the same ``(seed, index)``:

* ``scenario.params`` / ``scenario.pick`` / ``scenario.mobility`` —
  consumed by :func:`repro.scenarios.scenario_setup` before rendering;
* ``link.{name}.gilbert`` — sojourn draws replicate
  :class:`~repro.channel.gilbert.GilbertElliott`'s exact order;
* ``link.{name}.shadow`` — the initial draw plus AR(1) redraw sequence
  replicate :class:`~repro.channel.pathloss.LogDistancePathLoss`;
* ``scenario.oven`` / ``scenario.congestion.*`` — episode and sojourn
  draws replicate the event-path processes' renewal order.

Fading (``link.{name}.fading``), residual MAC loss (``link.{name}.loss``)
and queueing jitter (``link.{name}.delay``) consume the event path's
stream *names* but not its per-attempt draw order: retry backoffs use
their expected durations, attempts are conditionally independent given
the rendered channel state, and congestion collisions are integrated
analytically (a per-attempt mixture of the clean and penalized PER).
Those are distribution-level (statistical) matches, validated against
the event path by ``tests/test_batch_equivalence.py`` and enforced
per-population by :mod:`repro.batch.sanity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.population import PopulationSpec, SessionSetup
from repro.channel.gilbert import GilbertParams
from repro.channel.interference import CongestionProcess, MicrowaveOven
from repro.channel.link import LinkConfig
from repro.channel.pathloss import (
    REFERENCE_DISTANCE_M,
    REFERENCE_LOSS_DB,
    SHADOWING_CORRELATION,
    TX_POWER_DBM,
    rssi_to_snr_db,
)
from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace
from repro.core.replication import PairedRun
from repro.core.types import BoolArray, FloatArray
from repro.scenarios import InterferenceSpec, MobilityModel, ScenarioSetup
from repro.sim.random import RandomRouter
from repro.wifi.mac import CONTENTION_WINDOWS, DIFS_S, SLOT_TIME_S
from repro.wifi.phy import (
    MAC_OVERHEAD_S,
    MCS_TABLE,
    SNR_SLOPE_DB,
    TARGET_PER,
)

#: per-MCS curve constants, columnized for vectorized PER evaluation
_MCS_MID_DB = np.array([m.snr_mid_db for m in MCS_TABLE])
_MCS_RATE_MBPS = np.array([m.phy_rate_mbps for m in MCS_TABLE])

#: expected DIFS + contention backoff per retry stage: the mean of the
#: uniform slot draw :class:`repro.wifi.mac.MacLayer` makes over each of
#: :data:`repro.wifi.mac.CONTENTION_WINDOWS`
_BACKOFF_MEANS_S = (DIFS_S + np.asarray(CONTENTION_WINDOWS, dtype=float)
                    / 2.0 * SLOT_TIME_S)

#: RSSI sampling period of the event path's paired-run renderer
_RSSI_SAMPLE_PERIOD_S = 1.0

#: extra span horizon so attempt times past the last slot stay covered
_SPAN_MARGIN_S = 0.5


# ---------------------------------------------------------------------------
# vectorized PHY

def frame_error_prob_array(snr_db: FloatArray,
                           mid_db: FloatArray) -> FloatArray:
    """Vectorized :func:`repro.wifi.phy.frame_error_prob` (same math)."""
    return 1.0 / (1.0 + np.exp((snr_db - mid_db) / SNR_SLOPE_DB))


def select_mcs_indices(mean_snr_db: FloatArray) -> np.ndarray:
    """Vectorized :func:`repro.wifi.phy.select_mcs`: per-SNR index of the
    highest MCS meeting the target PER (index 0 when none does)."""
    snr = np.atleast_1d(np.asarray(mean_snr_db, dtype=float))
    per = frame_error_prob_array(snr[None, :], _MCS_MID_DB[:, None])
    ok = per <= TARGET_PER
    # highest True index per column (select_mcs keeps the LAST passing MCS)
    highest = (len(MCS_TABLE) - 1) - np.argmax(ok[::-1, :], axis=0)
    return np.where(ok.any(axis=0), highest, 0)


# ---------------------------------------------------------------------------
# random-process helpers

def ar1_complex(n: int, rho: float,
                rng: np.random.Generator) -> np.ndarray:
    """Unit-power AR(1) complex Gaussian sequence.

    ``x[0] = e[0]`` and ``x[i] = rho * x[i-1] + sqrt(1 - rho^2) * e[i]``
    for unit-power complex innovations ``e``; the recursion is evaluated
    as a truncated-kernel convolution (direct or FFT), matching the
    sequential loop to ~1e-15 without a Python loop.
    """
    innovations = (rng.normal(0.0, 1.0, size=n)
                   + 1j * rng.normal(0.0, 1.0, size=n)) * np.sqrt(0.5)
    if n <= 1 or rho <= 0.0:
        return innovations
    scale = float(np.sqrt(1.0 - rho ** 2))
    # kernel rho^j truncated where its weight drops below fp resolution
    if rho < 1.0:
        span = int(np.ceil(np.log(1e-16) / np.log(rho))) + 1
        length = max(1, min(n, span))
    else:
        length = n
    kernel = rho ** np.arange(length)
    driven_src = innovations[1:] * scale
    if driven_src.size * length > 4_000_000:
        # FFT linear convolution for long-coherence / high-rate grids
        m = driven_src.size + length - 1
        nfft = 1 << (m - 1).bit_length()
        driven = np.fft.ifft(np.fft.fft(driven_src, nfft)
                             * np.fft.fft(kernel, nfft))[:driven_src.size]
    else:
        driven = np.convolve(driven_src, kernel)[:driven_src.size]
    out = np.empty(n, dtype=complex)
    out[0] = innovations[0]
    out[1:] = driven + innovations[0] * rho ** np.arange(1, n)
    return out


def _alternating_spans(rng: np.random.Generator, start_second: bool,
                       mean_first_s: float, mean_second_s: float,
                       horizon_s: float
                       ) -> Tuple[FloatArray, BoolArray]:
    """Edges + states of an alternating-renewal process.

    ``start_second`` picks the initial state (True = the "second"
    state, whose sojourns draw ``mean_second_s``).  Draw order matches
    the lazy event-path chains (one exponential per sojourn, first
    sojourn drawn from the initial state's mean).
    """
    edges: List[float] = [0.0]
    states: List[bool] = []
    in_second = start_second
    t = 0.0
    while t < horizon_s:
        states.append(in_second)
        mean = mean_second_s if in_second else mean_first_s
        t += float(rng.exponential(mean))
        edges.append(t)
        in_second = not in_second
    return np.asarray(edges), np.asarray(states, dtype=bool)


def _span_indicator(times: FloatArray, edges: FloatArray,
                    states: BoolArray) -> BoolArray:
    """State of an alternating-renewal process at ``times`` (any shape)."""
    idx = np.searchsorted(edges[1:], times, side="right")
    return states[np.minimum(idx, len(states) - 1)]


def gilbert_spans(params: GilbertParams, horizon_s: float,
                  rng: np.random.Generator
                  ) -> Tuple[FloatArray, BoolArray]:
    """BAD-state span structure, sample-path identical to
    :class:`~repro.channel.gilbert.GilbertElliott` on the same stream."""
    start_bad = bool(rng.random() < params.stationary_bad_fraction)
    return _alternating_spans(rng, start_bad, params.mean_good_s,
                              params.mean_bad_s, horizon_s)


# ---------------------------------------------------------------------------
# interference components

@dataclass
class _OvenProcess:
    """One oven's rendered episode structure (queryable at any times)."""

    starts: FloatArray
    duration_s: float
    mains_s: float
    duty: float
    penalty_db: float
    floor_db: float
    delay_bound_s: float         # uniform(0, bound) while radiating

    def on(self, times: FloatArray) -> BoolArray:
        idx = np.searchsorted(self.starts, times, side="right") - 1
        episode_start = self.starts[np.maximum(idx, 0)]
        return (idx >= 0) & (times <= episode_start + self.duration_s)

    def radiating(self, times: FloatArray) -> BoolArray:
        phase = np.mod(times, self.mains_s) / self.mains_s
        return self.on(times) & (phase < self.duty)

    def penalty(self, times: FloatArray) -> FloatArray:
        on = self.on(times)
        phase = np.mod(times, self.mains_s) / self.mains_s
        radiating = on & (phase < self.duty)
        return np.where(radiating, self.penalty_db,
                        np.where(on, self.floor_db, 0.0))


@dataclass
class _CongestionSpans:
    """One congestion process's rendered busy structure."""

    edges: FloatArray
    states: BoolArray
    collision_prob: float
    collision_penalty_db: float
    busy_delay_s: float

    def busy(self, times: FloatArray) -> BoolArray:
        return _span_indicator(times, self.edges, self.states)


_Component = Union[_OvenProcess, _CongestionSpans]


def _render_oven(params: Dict[str, float], horizon_s: float,
                 rng: np.random.Generator) -> _OvenProcess:
    rate_hz = params["episode_rate_hz"]
    duration_s = params["episode_duration_s"]
    defaults = MicrowaveOven.__init__.__defaults__
    mains_s = float(params.get("mains_period_s", defaults[2]))
    duty = params["duty_cycle"]
    starts: List[float] = [float(rng.exponential(1.0 / rate_hz))]
    while starts[-1] <= horizon_s:
        starts.append(starts[-1] + duration_s
                      + float(rng.exponential(1.0 / rate_hz)))
    return _OvenProcess(
        starts=np.asarray(starts), duration_s=duration_s,
        mains_s=mains_s, duty=duty, penalty_db=params["penalty_db"],
        floor_db=params["floor_penalty_db"],
        delay_bound_s=mains_s * duty)


def _render_congestion(params: Dict[str, float], horizon_s: float,
                       rng: np.random.Generator) -> _CongestionSpans:
    mean_busy = params["mean_busy_s"]
    mean_idle = params["mean_idle_s"]
    start_busy = bool(rng.random() < mean_busy / (mean_busy + mean_idle))
    edges, states = _alternating_spans(
        rng, start_busy, mean_idle, mean_busy, horizon_s)
    default_penalty = float(CongestionProcess.__init__.__defaults__[-1])
    return _CongestionSpans(
        edges=edges, states=states,
        collision_prob=params["collision_prob"],
        collision_penalty_db=default_penalty,
        busy_delay_s=params["busy_delay_s"])


def _render_interference(spec: InterferenceSpec, router: RandomRouter,
                         horizon_s: float) -> _Component:
    rng = router.stream(spec.stream)
    params = spec.params_dict()
    if spec.kind == "oven":
        return _render_oven(params, horizon_s, rng)
    if spec.kind == "congestion":
        return _render_congestion(params, horizon_s, rng)
    raise ValueError(f"unknown interference kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# slow state (segments)

@dataclass
class _SlowState:
    """Piecewise-constant per-link slow state on the segment grid."""

    seg_of_slot: np.ndarray      # (T_ext,) segment index per slot
    seg_starts_s: FloatArray     # (S,)
    base_snr_db: FloatArray      # (S,) RSSI-derived SNR per segment
    rssi_dbm: FloatArray         # (S,)
    mcs_index: np.ndarray        # (S,)


def _segment_grid(horizon_s: float, seg_s: Optional[float],
                  times: FloatArray) -> Tuple[FloatArray, np.ndarray]:
    if seg_s is None:
        return np.zeros(1), np.zeros(len(times), dtype=np.intp)
    n_seg = max(1, int(np.ceil(horizon_s / seg_s)))
    starts = np.arange(n_seg) * seg_s
    seg_of = np.minimum((times / seg_s).astype(np.intp), n_seg - 1)
    return starts, seg_of


def _session_positions(mobility: MobilityModel,
                       seg_starts_s: FloatArray
                       ) -> Tuple[FloatArray, FloatArray]:
    """Client (x, y) per segment; the walk is advanced exactly once per
    session (both links share the same positions, as in the event path
    where one walk object serves both links)."""
    xs = np.empty(len(seg_starts_s))
    ys = np.empty(len(seg_starts_s))
    for k, t in enumerate(seg_starts_s):
        pos = mobility.position_at(float(t))
        xs[k] = pos.x
        ys[k] = pos.y
    return xs, ys


def _slow_state(config: LinkConfig, drifting: bool,
                xs: FloatArray, ys: FloatArray,
                seg_starts_s: FloatArray, seg_of_slot: np.ndarray,
                rng_shadow: np.random.Generator) -> _SlowState:
    pl = config.pathloss
    n_seg = len(seg_starts_s)
    shadow = np.empty(n_seg)
    shadow[0] = float(rng_shadow.normal(0.0, pl.shadowing_sigma_db))
    correlation = SHADOWING_CORRELATION
    innovation_sigma = pl.shadowing_sigma_db * np.sqrt(
        1.0 - correlation ** 2)
    for k in range(1, n_seg):
        if drifting:
            shadow[k] = (correlation * shadow[k - 1]
                         + float(rng_shadow.normal(0.0, innovation_sigma)))
        else:
            shadow[k] = shadow[k - 1]
    dx = xs - config.ap_position.x
    dy = ys - config.ap_position.y
    distance = np.maximum(np.hypot(dx, dy), REFERENCE_DISTANCE_M)
    path_loss = (REFERENCE_LOSS_DB
                 + 10.0 * pl.exponent
                 * np.log10(distance / REFERENCE_DISTANCE_M)
                 + shadow)
    rssi = TX_POWER_DBM - path_loss
    base_snr = rssi_to_snr_db(rssi)
    mcs_index = select_mcs_indices(base_snr)
    return _SlowState(seg_of_slot=seg_of_slot, seg_starts_s=seg_starts_s,
                      base_snr_db=base_snr, rssi_dbm=rssi,
                      mcs_index=mcs_index)


# ---------------------------------------------------------------------------
# per-attempt fading

def _attempt_gains(config: LinkConfig, slot_gains: np.ndarray,
                   gap_s: FloatArray,
                   rng: np.random.Generator) -> np.ndarray:
    """Complex gains at every attempt time: row 0 is the slot-time AR(1)
    sequence, row ``a`` evolves row ``a - 1`` across that retry's
    backoff-plus-airtime gap (matching how the event fading advances at
    each attempt's transmit time)."""
    n_attempts = gap_s.shape[0] + 1
    n = slot_gains.shape[0]
    gains = np.empty((n_attempts, n), dtype=complex)
    gains[0] = slot_gains
    rho = np.exp(-gap_s / config.coherence_time_s)
    sigma = np.sqrt(np.maximum(1.0 - rho ** 2, 0.0) * 0.5)
    for a in range(1, n_attempts):
        innovation = (rng.normal(0.0, 1.0, size=n)
                      + 1j * rng.normal(0.0, 1.0, size=n))
        gains[a] = rho[a - 1] * gains[a - 1] + sigma[a - 1] * innovation
    return gains


def _attempt_fade_db(config: LinkConfig, n: int, spacing_s: float,
                     gap_s: FloatArray,
                     rng: np.random.Generator) -> FloatArray:
    """Per-attempt fade matrix (retries + 1, n): Rayleigh / Rician /
    MIMO selection diversity, evolved across the retry burst."""
    rho_slot = float(np.exp(-spacing_s / config.coherence_time_s))
    branches = config.phy.n_spatial_branches

    def branch_power() -> FloatArray:
        gains = _attempt_gains(config, ar1_complex(n, rho_slot, rng),
                               gap_s, rng)
        if branches == 1 and config.rician_k_db is not None:
            k = 10.0 ** (config.rician_k_db / 10.0)
            los = np.sqrt(k / (k + 1.0))
            gains = los + gains * np.sqrt(1.0 / (k + 1.0))
        return np.asarray(np.abs(gains) ** 2)

    power = branch_power()
    for _ in range(branches - 1):
        power = np.maximum(power, branch_power())
    return 10.0 * np.log10(np.maximum(power, 1e-12))


# ---------------------------------------------------------------------------
# per-link rendering

@dataclass
class _LinkArrays:
    """One session-link's rendered outcomes."""

    delivered: BoolArray          # (T,)
    delays: FloatArray            # (T,) NaN where lost
    rssi_dbm: float
    offset_delivered: BoolArray   # (D, T)
    offset_delays: FloatArray     # (D, T)


def _render_link(config: LinkConfig, slow: _SlowState,
                 components: Sequence[_Component],
                 profile: StreamProfile, router: RandomRouter,
                 n_ext: int, deltas: Sequence[float],
                 delta_slots: Sequence[int]) -> _LinkArrays:
    n = profile.n_packets
    spacing = profile.inter_packet_spacing_s
    prefix = f"link.{config.name}"
    rng_loss = router.stream(f"{prefix}.loss")
    rng_delay = router.stream(f"{prefix}.delay")
    rng_fading = router.stream(f"{prefix}.fading")

    horizon_s = n_ext * spacing + _SPAN_MARGIN_S
    times = np.arange(n_ext) * spacing
    n_attempts = len(CONTENTION_WINDOWS)

    seg = slow.seg_of_slot
    base_snr = slow.base_snr_db[seg]
    mcs_idx = slow.mcs_index[seg]
    mid = _MCS_MID_DB[mcs_idx]
    rate_mbps = _MCS_RATE_MBPS[mcs_idx]
    airtime = (profile.packet_size_bytes * 8.0 / (rate_mbps * 1e6)
               + MAC_OVERHEAD_S)                        # (n_ext,)
    backoff = _BACKOFF_MEANS_S                          # (n_attempts,)

    # Queueing delay, drawn at each slot's send time (event order: the
    # interference delay is sampled before the MAC burst begins).
    queue = np.zeros(n_ext)
    for comp in components:
        if isinstance(comp, _OvenProcess):
            draws = rng_delay.uniform(0.0, comp.delay_bound_s,
                                      size=n_ext)
            queue = queue + draws * comp.radiating(times)
        else:
            draws = rng_delay.exponential(comp.busy_delay_s, size=n_ext)
            queue = queue + draws * comp.busy(times)

    # Attempt transmit times: air start + cumulative backoffs + airtimes
    # (the expected schedule of MacLayer.transmit).
    cum_backoff = np.cumsum(backoff)                    # (n_attempts,)
    attempt_t = (times + config.base_delay_s + queue)[None, :] \
        + cum_backoff[:, None] \
        + np.arange(n_attempts)[:, None] * airtime[None, :]

    # Fading evolved across the burst; the gap between attempts a-1 and
    # a is that retry's backoff plus one airtime.
    gap_s = backoff[1:, None] + airtime[None, :]        # (retries, n_ext)
    fade = _attempt_fade_db(config, n_ext, spacing, gap_s, rng_fading)

    edges, states = gilbert_spans(config.gilbert, horizon_s,
                                  router.stream(f"{prefix}.gilbert"))
    bad = _span_indicator(attempt_t, edges, states)

    penalty = np.zeros_like(attempt_t)
    for comp in components:
        if isinstance(comp, _OvenProcess):
            penalty = penalty + comp.penalty(attempt_t)
    snr = base_snr[None, :] + fade - penalty

    p_phy = frame_error_prob_array(snr, mid[None, :])
    for comp in components:
        if isinstance(comp, _CongestionSpans):
            # Per-attempt collision penalty, integrated analytically:
            # while busy, an attempt collides with prob c and then sees
            # the penalized PER.
            p_hit = frame_error_prob_array(
                snr - comp.collision_penalty_db, mid[None, :])
            chance = comp.collision_prob * comp.busy(attempt_t)
            p_phy = (1.0 - chance) * p_phy + chance * p_hit

    p_ge = np.where(bad, config.gilbert.loss_bad, config.gilbert.loss_good)
    p_attempt = np.clip(
        1.0 - (1.0 - p_phy) * (1.0 - p_ge), 0.0, 1.0)   # (n_attempts, n_ext)
    p_residual = p_attempt.prod(axis=0)                 # (n_ext,)

    # Expected service time: stage a is reached with the probability all
    # earlier attempts failed, and costs its backoff + one airtime.
    reach = np.ones_like(p_attempt)
    reach[1:] = np.cumprod(p_attempt[:-1], axis=0)
    stage_cost = backoff[:, None] + airtime[None, :]
    service = (reach * stage_cost).sum(axis=0)          # (n_ext,)
    jitter_scale = (backoff[0] + airtime) * 0.3

    def sampled_delays(window: slice) -> FloatArray:
        jitter = rng_delay.exponential(jitter_scale[window])
        return (config.base_delay_s + queue[window] + service[window]
                + jitter)

    lost = rng_loss.random(n_ext) < p_residual
    delays = np.where(lost[:n], np.nan,
                      sampled_delays(slice(0, n_ext))[:n])

    d_count = len(deltas)
    off_del = np.zeros((d_count, n), dtype=bool)
    off_delay = np.full((d_count, n), np.nan)
    for d_index, (delta, k) in enumerate(zip(deltas, delta_slots)):
        window = slice(k, k + n)
        lost_d = rng_loss.random(n) < p_residual[window]
        off_del[d_index] = ~lost_d
        off_delay[d_index] = np.where(
            lost_d, np.nan, float(delta) + sampled_delays(window))

    sample_times = np.arange(0.0, profile.duration_s,
                             _RSSI_SAMPLE_PERIOD_S)
    sample_seg = np.minimum(
        np.searchsorted(slow.seg_starts_s, sample_times,
                        side="right") - 1,
        len(slow.seg_starts_s) - 1)
    rssi = float(np.mean(slow.rssi_dbm[np.maximum(sample_seg, 0)])) \
        if len(sample_times) else 0.0

    return _LinkArrays(delivered=~lost[:n], delays=delays, rssi_dbm=rssi,
                       offset_delivered=off_del, offset_delays=off_delay)


# ---------------------------------------------------------------------------
# session + block rendering

def _session_seg_interval(setup: ScenarioSetup) -> Optional[float]:
    """Slow-state segment length: the finest shadowing-update interval of
    any drifting link, or None when the slow state is frozen."""
    intervals = [
        cfg.shadowing_update_s for cfg in (setup.config_a, setup.config_b)
        if setup.mobility.is_moving or cfg.environment_drift]
    return min(intervals) if intervals else None


def _delta_slots(deltas: Sequence[float], spacing_s: float) -> List[int]:
    """Temporal offsets quantized to whole packet slots.

    The event path transmits the replica at ``t + delta`` exactly; the
    batch grid evaluates the channel at the nearest slot (deltas in the
    experiment suite are multiples of the packet spacing, so this is
    exact there) while the reported delay keeps the exact ``delta``.
    """
    return [int(round(float(d) / spacing_s)) for d in deltas]


def render_session(session: SessionSetup, profile: StreamProfile,
                   deltas: Sequence[float] = ()
                   ) -> Tuple[List[_LinkArrays], str]:
    """Render both links of one session (link A carries the replicas)."""
    setup = session.setup
    router = session.router
    spacing = profile.inter_packet_spacing_s
    n = profile.n_packets
    slots = _delta_slots(deltas, spacing)
    n_ext = n + (max(slots) if slots else 0)
    horizon_s = n_ext * spacing + _SPAN_MARGIN_S
    times_ext = np.arange(n_ext) * spacing

    seg_interval = _session_seg_interval(setup)
    seg_starts, seg_of = _segment_grid(horizon_s, seg_interval, times_ext)
    xs, ys = _session_positions(setup.mobility, seg_starts)

    rendered: Dict[str, _Component] = {}

    def components_for(own: Optional[InterferenceSpec]
                       ) -> List[_Component]:
        specs = [s for s in (setup.shared_interference, own)
                 if s is not None]
        out: List[_Component] = []
        for spec in specs:
            if spec.stream not in rendered:
                rendered[spec.stream] = _render_interference(
                    spec, router, horizon_s)
            out.append(rendered[spec.stream])
        return out

    links: List[_LinkArrays] = []
    for config, own, link_deltas, link_slots in (
            (setup.config_a, setup.interference_a, deltas, slots),
            (setup.config_b, setup.interference_b, (), [])):
        drifting = setup.mobility.is_moving or config.environment_drift
        slow = _slow_state(config, drifting, xs, ys, seg_starts, seg_of,
                           router.stream(f"link.{config.name}.shadow"))
        links.append(_render_link(
            config, slow, components_for(own), profile, router,
            n_ext, link_deltas, link_slots))
    return links, session.scenario


@dataclass
class TraceBlock:
    """Trace matrices for a block of sessions (B x 2 links x T slots)."""

    profile: StreamProfile
    indices: Tuple[int, ...]
    scenarios: Tuple[str, ...]
    deltas: Tuple[float, ...]
    send_times: FloatArray        # (T,)
    delivered: BoolArray          # (B, 2, T)
    delays: FloatArray            # (B, 2, T), NaN where lost
    rssi_dbm: FloatArray          # (B, 2)
    offset_delivered: BoolArray   # (B, D, T) — replicas on link A
    offset_delays: FloatArray     # (B, D, T), includes the offset itself

    @property
    def n_sessions(self) -> int:
        return len(self.indices)

    @property
    def n_packets(self) -> int:
        return len(self.send_times)

    @property
    def spacing_s(self) -> float:
        return self.profile.inter_packet_spacing_s

    # bridge from a batch block to the event strategies that the batch
    # parity tests compare against
    def paired_run(  # reproflow: disable=RCH602
            self, position: int) -> PairedRun:
        """Session at ``position`` as an event-path-shaped PairedRun."""
        offsets = {
            float(d): LinkTrace(
                f"A+{float(d) * 1e3:.0f}ms", self.send_times,
                self.offset_delivered[position, i],
                self.offset_delays[position, i])
            for i, d in enumerate(self.deltas)}
        return PairedRun(
            profile=self.profile,
            trace_a=LinkTrace("A", self.send_times,
                              self.delivered[position, 0],
                              self.delays[position, 0]),
            trace_b=LinkTrace("B", self.send_times,
                              self.delivered[position, 1],
                              self.delays[position, 1]),
            offset_traces=offsets,
            rssi_a_dbm=float(self.rssi_dbm[position, 0]),
            rssi_b_dbm=float(self.rssi_dbm[position, 1]),
            scenario=self.scenarios[position])


def render_block(spec: PopulationSpec,
                 indices: Optional[Sequence[int]] = None) -> TraceBlock:
    """Render a block of the population as stacked trace matrices.

    ``indices`` defaults to the whole population.  Each session is
    derived independently from ``(root_seed, index)``, so any subset
    renders bit-identically to the same sessions inside a larger block.
    """
    if indices is None:
        indices = range(spec.n_sessions)
    index_tuple = tuple(int(i) for i in indices)
    profile = spec.profile
    n = profile.n_packets
    d_count = len(spec.deltas)
    b = len(index_tuple)

    delivered = np.zeros((b, 2, n), dtype=bool)
    delays = np.full((b, 2, n), np.nan)
    rssi = np.zeros((b, 2))
    off_del = np.zeros((b, d_count, n), dtype=bool)
    off_delay = np.full((b, d_count, n), np.nan)
    scenarios: List[str] = []

    for row, index in enumerate(index_tuple):
        links, scenario = render_session(
            spec.session_setup(index), profile, spec.deltas)
        scenarios.append(scenario)
        for col, link in enumerate(links):
            delivered[row, col] = link.delivered
            delays[row, col] = link.delays
            rssi[row, col] = link.rssi_dbm
        off_del[row] = links[0].offset_delivered
        off_delay[row] = links[0].offset_delays

    return TraceBlock(
        profile=profile, indices=index_tuple, scenarios=tuple(scenarios),
        deltas=tuple(float(d) for d in spec.deltas),
        send_times=np.arange(n) * profile.inter_packet_spacing_s,
        delivered=delivered, delays=delays, rssi_dbm=rssi,
        offset_delivered=off_del, offset_delays=off_delay)
