"""Tests for the per-codec E-model constants (G.113)."""

import warnings

import pytest

from repro.experiments.section4 import run_figure6
from repro.voice.quality import (
    UnknownCodecError,
    codec_impairment,
    emodel_r_factor,
)


def test_known_codecs_present():
    for codec in ("g711", "G722", "G723", "G729"):
        assert codec_impairment(codec).bpl > 0


def test_unknown_codec_raises():
    """Regression: an unknown codec used to silently score with G.711's
    constants — the most loss-robust entry in the table."""
    with pytest.raises(UnknownCodecError, match="opus-super"):
        codec_impairment("opus-super")


def test_known_codec_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert codec_impairment("G729").ie == 11.0


def test_low_bitrate_codecs_score_worse_at_zero_loss():
    """Ie > 0 codecs start below G.711 even on a perfect network."""
    g711 = emodel_r_factor(0.0, 0.05, codec="g711")
    g729 = emodel_r_factor(0.0, 0.05, codec="G729")
    g723 = emodel_r_factor(0.0, 0.05, codec="G723")
    assert g729 < g711
    assert g723 < g711


def test_g711_most_loss_robust():
    """G.711's PLC (highest Bpl) degrades most gracefully with loss."""
    def drop(codec):
        return (emodel_r_factor(0.0, 0.05, codec=codec)
                - emodel_r_factor(0.05, 0.05, codec=codec))
    assert drop("g711") < drop("G722")


def test_figure6_ci_present_when_poor_calls_exist():
    result = run_figure6(n_runs_per_scenario=4, seed=3)
    rendered = result.render()
    assert "overall improvement" in rendered
    # raw indicators captured for the bootstrap
    assert set(result.raw_poors) == {"stronger", "cross-link"}
    interval = result.improvement_interval()
    if interval is not None:
        assert interval.low <= result.improvement_factor() * 1.5
