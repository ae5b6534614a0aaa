"""Population studies (repro.studies.population): frozen pins and
determinism.

The per-call scalar references these studies were built against are
gone.  The pins below freeze the outputs at the configurations the old
parity tests ran, and were recorded at the commit where those tests
still proved the vectorized, runner-sharded studies equal to the scalar
loops — bit for bit at the block-render layer, value for value in every
Table 1 / Table 2 row.  The pin tests keep the parity tests' names,
since they stand in for them.  A pin failure means an output moved:
either a bug, or a deliberate model change that must re-record the
digest and say why.  The remaining tests check that batch digests are identical
serial vs ``--jobs 2`` vs warm cache.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.cli import main as cli_main
from repro.runner import RunnerConfig
from repro.studies.population import (
    nettest_population_study,
    provider_population_study,
    render_provider_block,
)
from repro.studies.provider import pair_state


def _block_digest(arrays) -> str:
    """Every field's name, dtype, shape and bytes, in field order."""
    h = hashlib.sha256()
    for f in dataclasses.fields(arrays):
        a = getattr(arrays, f.name)
        h.update(f"{f.name}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _tables_digest(tables) -> str:
    """Every field of a merged study table, sketches as their payloads
    (JSON floats round-trip exactly)."""
    payload = {f.name: getattr(tables, f.name)
               for f in dataclasses.fields(tables)}
    payload["rows"] = [dataclasses.asdict(r) if dataclasses.is_dataclass(r)
                       else r for r in tables.rows]
    payload["mos_cdf"] = tables.mos_cdf.to_payload()
    payload["mos_moments"] = tables.mos_moments.to_payload()
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------- block pins

#: (seed, block, count) -> (rated calls, block digest)
BLOCK_PINS = {
    (0, 0, 2000): (219, "9faa08835d065977"),
    (0, 1, 513): (60, "c8c0d13600b362c7"),
    (7, 0, 2000): (207, "610d6d3bb1bb3d77"),
    (7, 1, 513): (57, "fdc132445b998d51"),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("block,count", [(0, 2000), (1, 513)])
def test_render_block_bit_exact_vs_scalar(seed, block, count):
    """Every field of a rendered block — including a truncated final
    block — matches the digest recorded while the scalar loop agreed
    with it bit for bit."""
    arrays = render_provider_block(block, count, seed,
                                   pair_state(seed, 3000))
    n_rated = int(arrays.rated.sum())
    assert 0 < n_rated < count
    assert (n_rated, _block_digest(arrays)) == BLOCK_PINS[
        (seed, block, count)]


def test_render_block_response_bias_off_parity():
    arrays = render_provider_block(0, 800, 1, pair_state(1, 3000),
                                   response_bias=False)
    assert (int(arrays.rated.sum()), _block_digest(arrays)) == \
        (84, "866171d22cd54002")


# ------------------------------------------------- Table 1 pins

#: seed -> (rated calls, tables digest) at n_calls = 30_000
TABLE1_PINS = {
    0: (3155, "b268599c99019074"),
    3: (3206, "c3a20df2f0c19f4d"),
}


@pytest.mark.parametrize("seed", [0, 3])
def test_table1_exact_parity_vs_scalar(seed):
    """The merged study — rows, overall PCR, Wilson interval, counts and
    the MOS sketches — matches the digest recorded while the scalar
    Table 1 analysis agreed with it exactly."""
    n_calls = 30_000
    tables = provider_population_study(n_calls=n_calls, seed=seed)
    assert tables.n_calls == n_calls
    assert tables.n_rated_calls == tables.rows[0].n_calls
    assert tables.mos_cdf.count == tables.n_rated_calls
    assert 0.0 <= tables.pcr_wilson[0] <= tables.overall_pcr \
        <= tables.pcr_wilson[1] <= 1.0
    assert (tables.n_rated_calls, _tables_digest(tables)) == \
        TABLE1_PINS[seed]


def test_provider_population_sketches_cover_rated_calls():
    tables = provider_population_study(n_calls=20_000, seed=2)
    assert tables.mos_cdf.count == tables.n_rated_calls
    assert tables.mos_moments.count == tables.n_rated_calls
    assert 1.0 <= tables.mos_moments.mean <= 4.5


# ------------------------------------------------- Table 2 pins

#: (seed, scale) -> (calls, tables digest)
TABLE2_PINS = {
    (0, 0.05): (462, "9464f1e48d1f27d9"),
    (5, 0.02): (185, "a62befaf7b7a9135"),
}


@pytest.mark.parametrize("seed,scale", [(0, 0.05), (5, 0.02)])
def test_nettest_exact_parity_vs_scalar(seed, scale):
    """Rows, spatial stats and MOS sketches match the digest recorded
    while the scalar NetTest study agreed with them exactly."""
    tables = nettest_population_study(seed=seed, scale=scale)
    assert tables.mos_cdf.count == tables.n_calls
    assert 0.0 <= tables.pcr_wilson[0] <= tables.overall_pcr \
        <= tables.pcr_wilson[1] <= 1.0
    assert (tables.n_calls, _tables_digest(tables)) == \
        TABLE2_PINS[(seed, scale)]


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
