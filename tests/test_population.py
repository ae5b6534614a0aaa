"""Population backend (repro.studies.population) vs the scalar paths.

The contract under test: the vectorized, runner-sharded population
studies are *exactly* equal to the scalar per-call loops — bit-level at
the block-render layer, value-level for every Table 1 / Table 2 row —
and their batch digests are identical serial vs ``--jobs 2``.
"""

import io
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.runner import RunnerConfig
from repro.studies.nettest import run_nettest_study
from repro.studies.population import (
    nettest_population_study,
    provider_block_calls,
    provider_population_study,
    render_provider_block,
)
from repro.studies.provider import (
    CALL_BLOCK,
    ProviderDataset,
    analyze_table1,
    pair_state,
    synthesize_provider_block,
)

# ------------------------------------------------------- block bit parity


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("block,count", [(0, 2000), (1, 513)])
def test_render_block_bit_exact_vs_scalar(seed, block, count):
    """The vectorized renderer consumes the same named substreams as the
    scalar loop and must reproduce every call bit-for-bit — including a
    truncated final block."""
    pairs = pair_state(seed, 3000)
    scalar = synthesize_provider_block(block, count, seed, pairs)
    vector = provider_block_calls(
        render_provider_block(block, count, seed, pairs))
    assert len(scalar) == len(vector)       # rated subset of `count`
    assert 0 < len(scalar) < count
    for s, v in zip(scalar, vector):
        assert (s.subnet_pair, s.category, s.pc_class, s.rating) == \
            (v.subnet_pair, v.category, v.pc_class, v.rating)


def test_render_block_response_bias_off_parity():
    pairs = pair_state(1, 3000)
    scalar = synthesize_provider_block(0, 800, 1, pairs,
                                       response_bias=False)
    vector = provider_block_calls(
        render_provider_block(0, 800, 1, pairs, response_bias=False))
    assert [(s.subnet_pair, s.rating) for s in scalar] == \
        [(v.subnet_pair, v.rating) for v in vector]


# ------------------------------------------------- Table 1 exact parity


@pytest.mark.parametrize("seed", [0, 3])
def test_table1_exact_parity_vs_scalar(seed):
    """Whole-study equality at small N against the scalar reference
    blocks: same rows (labels, deltas, counts), same overall PCR —
    exactly, not approximately."""
    n_calls = 30_000
    pairs = pair_state(seed, 3000)
    scalar = ProviderDataset()
    for block, start in enumerate(range(0, n_calls, CALL_BLOCK)):
        scalar.calls.extend(synthesize_provider_block(
            block, min(CALL_BLOCK, n_calls - start), seed, pairs))
    scalar_rows = analyze_table1(scalar)
    tables = provider_population_study(n_calls=n_calls, seed=seed)
    assert len(tables.rows) == len(scalar_rows)
    for got, want in zip(tables.rows, scalar_rows):
        assert got.label == want.label
        assert got.n_calls == want.n_calls
        for field in ("delta_ee_pct", "delta_ew_pct", "delta_ww_pct"):
            g, w = getattr(got, field), getattr(want, field)
            assert g == w or (np.isnan(g) and np.isnan(w))
    assert tables.n_calls == n_calls
    assert tables.n_rated_calls == scalar_rows[0].n_calls
    assert 0.0 <= tables.pcr_wilson[0] <= tables.overall_pcr \
        <= tables.pcr_wilson[1] <= 1.0


def test_provider_population_sketches_cover_rated_calls():
    tables = provider_population_study(n_calls=20_000, seed=2)
    assert tables.mos_cdf.count == tables.n_rated_calls
    assert tables.mos_moments.count == tables.n_rated_calls
    assert 1.0 <= tables.mos_moments.mean <= 4.5


# ------------------------------------------------- Table 2 exact parity


@pytest.mark.parametrize("seed,scale", [(0, 0.05), (5, 0.02)])
def test_nettest_exact_parity_vs_scalar(seed, scale):
    dataset = run_nettest_study(seed=seed, scale=scale)
    tables = nettest_population_study(seed=seed, scale=scale)

    assert tables.rows == dataset.table2()
    assert tables.overall_pcr == dataset.pcr()
    assert tables.n_calls == len(dataset.calls)
    frac_any, frac_20 = dataset.spatial_stats()
    assert tables.frac_users_any_poor == frac_any
    assert tables.frac_users_pcr20 == frac_20
    assert tables.mos_cdf.count == len(dataset.calls)


# --------------------------------------- scheduling/caching determinism


def test_provider_population_serial_vs_jobs2_digests(tmp_path):
    """Serial, --jobs 2 and warm-cache runs must merge to identical
    tables AND identical batch digests (the spec-order merge contract).
    """
    n_calls = 40_000          # 3 blocks x 2 passes

    def run(jobs, cache, no_cache=False):
        digests = []
        tables = provider_population_study(
            n_calls=n_calls, seed=0,
            runner_config=RunnerConfig(
                jobs=jobs, cache_dir=cache, no_cache=no_cache,
                on_batch=lambda batch: digests.append(batch.digest)))
        return tables, digests

    serial, serial_digests = run(1, tmp_path / "cache")
    jobs2, jobs2_digests = run(2, None, no_cache=True)
    warm, warm_digests = run(1, tmp_path / "cache")

    for other in (jobs2, warm):
        assert other.rows == serial.rows
        assert other.overall_pcr == serial.overall_pcr
        assert other.mos_moments.to_payload() == \
            serial.mos_moments.to_payload()
    assert jobs2_digests == serial_digests
    assert warm_digests == serial_digests


def test_nettest_population_serial_vs_jobs2_digests(tmp_path):
    def run(jobs):
        digests = []
        tables = nettest_population_study(
            seed=1, scale=0.02,
            runner_config=RunnerConfig(
                jobs=jobs, cache_dir=tmp_path / "cache",
                no_cache=(jobs > 1),
                on_batch=lambda batch: digests.append(batch.digest)))
        return tables, digests

    serial, serial_digests = run(1)
    jobs2, jobs2_digests = run(2)
    assert jobs2.rows == serial.rows
    assert jobs2_digests == serial_digests


# ------------------------------------------------------------ CLI surface


def test_cli_table1_runs_smoke():
    out = io.StringIO()
    assert cli_main(["table1", "--runs", "2000"], out=out) == 0
    text = out.getvalue()
    assert "Table 1: change in PCR" in text
    assert "calls generated: 2,000" in text
    assert "Wilson" in text
    assert "digest=" in text


def test_cli_table2_runs_smoke():
    out = io.StringIO()
    assert cli_main(["table2", "--runs", "150"], out=out) == 0
    text = out.getvalue()
    assert "Table 2: poor call rates" in text
    assert "Wilson" in text
    assert "digest=" in text


def test_cli_table1_metrics_out_has_population_counters():
    """Table 1 runs on the sharded population study, so its
    ``--metrics-out`` carries the per-block ``population.*`` counters."""
    out = io.StringIO()
    assert cli_main(["table1", "--runs", "2000", "--no-cache",
                     "--metrics-out", "-"], out=out) == 0
    metrics = json.loads(out.getvalue().rstrip("\n").splitlines()[-1])
    counters = {m["name"] for m in metrics["metrics"]
                if m["kind"] == "counter"}
    assert "population.calls" in counters
