"""Frozen digests of Section 4 wild blocks reduced by the batch backend.

Each case runs one ``population_block_metrics`` block of 24 sessions
and hashes the canonical JSON of the returned payload list.  The
literals were recorded before the batch ``divert`` reduction lost its
per-slot loop; any later change to the batch render or reduce phase
must reproduce every payload byte exactly.  A deliberate change of
behaviour re-records them.

The payload list is the same with and without ``REPRO_SANITIZE=1``
(the sanitizer's event re-runs meter into a throwaway registry), so
``make sanitize-test`` runs this file too.
"""

import hashlib

import pytest

from repro.batch import population_block_metrics
from repro.runner.spec import canonical_json

DELTAS = (0.0, 0.1)
COUNT = 24

#: (root_seed, start) -> sha256 of the canonical payload-list JSON
FROZEN = {
    (0, 0): (
        "4a53f1713a20c6bf076696a40d1cbb5e"
        "b7d09dcf169f770624a64fcbf01ea567"),
    (0, 24): (
        "0fb50a10dba4ff9de65b89f7081113fb"
        "47c1a2b1e057670b08063dc3cd63d483"),
    (1, 0): (
        "05558eb94c72ad18b171389a0d43bfd5"
        "144575aef76b523e79fc3cd93c249e08"),
    (1, 24): (
        "da73dcb2afc6d35be3d3774b5421a7b9"
        "2f71d7aee132481694da89c95ff175cb"),
}


def _block_digest(root_seed: int, start: int) -> str:
    payloads = population_block_metrics(
        start, count=COUNT, root_seed=root_seed, deltas=list(DELTAS))
    blob = canonical_json(payloads)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("root_seed,start", sorted(FROZEN))
def test_batch_block_matches_frozen_digest(root_seed, start):
    assert _block_digest(root_seed, start) == FROZEN[(root_seed, start)]
