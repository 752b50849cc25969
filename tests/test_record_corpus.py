"""Every sweep and campaign record of the acceptance runs, compared float for float.

The corpus holds:

- the ``record()`` of all 413 braid-invariance runs of the acceptance sweep
  (every op sequence of length 1 to 3 per model, 100 trials, tol 2e-12,
  seed ``40_000 + i`` for the i-th sequence of the model);
- the ``record()`` of 1000-trial masking campaigns at tol 1e-12 for both
  built-in schemes at seeds 20240, 20241, 0 and 7;
- one run whose seed and trial count are numpy integers;
- the ``record()`` of ``run_teleport`` on the first 30 draws of criterion 6's
  stream (``random_unit_coeffs(3, default_rng(20246))``), on ``[1, 0, 0]``,
  on ``[0.6, 0.8j, 0]`` and on an input with signed-zero parts.

Records hold floats, not digests, so a mismatch names the entry and the
largest float difference.  The bits depend on the numpy and BLAS build, and
the corpus records the build it was made on: on another build the test
skips and names both.  Regenerate the file with
``PYTHONPATH=src python tests/test_record_corpus.py``; that is a change to a
check, to be recorded with the entries that moved and by how much.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from anyonmask.braid import op_set, parse_ops, verify_invariance
from anyonmask.masker import abelian_standard_scheme, ising_cyclic_scheme, random_unit_coeffs, run_masking_campaign
from anyonmask.teleport import run_teleport
from test_cli_golden import build_id

CORPUS = Path(__file__).parent / "golden" / "records.json"

SWEEP_SEED = 40_000
CAMPAIGN_SEEDS = (20240, 20241, 0, 7)
TELEPORT_SEED = 20246
TELEPORT_INPUTS = {
    "basis-1": [1, 0, 0],
    "0.6,0.8j,0": [0.6, 0.8j, 0],
    "signed-zero": [complex(-0.0, 0.6), complex(0.8, -0.0), -0.0],
}

SCHEMES = {"abelian": abelian_standard_scheme, "ising": ising_cyclic_scheme}


def build_records() -> dict[str, dict]:
    """Every corpus entry by name, in a fixed order."""
    records: dict[str, dict] = {}
    for kind, make_scheme in SCHEMES.items():
        scheme = make_scheme()
        sequences = itertools.chain.from_iterable(
            itertools.product(op_set(kind), repeat=length) for length in (1, 2, 3)
        )
        for i, ops in enumerate(sequences):
            report = verify_invariance(scheme, ops, trials=100, tol=2e-12, seed=SWEEP_SEED + i)
            records[f"sweep/{kind}/{i}"] = report.record()
    for kind, make_scheme in SCHEMES.items():
        for seed in CAMPAIGN_SEEDS:
            result = run_masking_campaign(make_scheme(), trials=1000, seed=seed, tol=1e-12)
            records[f"campaign/{kind}/{seed}"] = result.record()
    report = verify_invariance(
        ising_cyclic_scheme(), parse_ops("t3;cAB"), trials=np.int64(100), tol=2e-12, seed=np.uint32(SWEEP_SEED)
    )
    records["numpy-integers/ising/t3;cAB"] = report.record()
    rng = np.random.default_rng(TELEPORT_SEED)
    for i in range(30):
        records[f"teleport/{TELEPORT_SEED}/{i}"] = run_teleport(random_unit_coeffs(3, rng)).record()
    for name, coeffs in TELEPORT_INPUTS.items():
        records[f"teleport/{name}"] = run_teleport(coeffs).record()
    return records


def _floats(value) -> list[float]:
    """The floats of a record, depth first in key order."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _floats(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


def largest_difference(new: dict, old: dict) -> float:
    """The largest absolute difference between matching floats of two records (inf if unmatched)."""
    a, b = _floats(new), _floats(old)
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def test_records_match_the_corpus():
    corpus = json.loads(CORPUS.read_text())
    if corpus["build"] != build_id():
        pytest.skip(f"records were made with {corpus['build']}; this is {build_id()}")
    want = corpus["records"]
    got = json.loads(json.dumps(build_records()))
    assert list(got) == list(want), "the corpus names other entries than the runs make"
    for name, old in want.items():
        new = got[name]
        if new != old:
            pytest.fail(
                f"entry {name}: {json.dumps(new, sort_keys=True)} != {json.dumps(old, sort_keys=True)} "
                f"(largest float difference {largest_difference(new, old):.3e})"
            )


def test_a_mismatch_names_the_largest_float_difference():
    old = {"per_party_worst": [1e-16, 2e-16], "worst_deviation": 2e-16, "verdict": "pass"}
    new = {"per_party_worst": [1e-16, 5e-16], "worst_deviation": 5e-16, "verdict": "pass"}
    assert largest_difference(new, old) == pytest.approx(3e-16)
    assert largest_difference(old, old) == 0.0
    assert largest_difference({"per_party_worst": [1e-16]}, old) == math.inf


if __name__ == "__main__":
    body = ",\n".join(f"    {json.dumps(name)}: {json.dumps(rec, sort_keys=True)}" for name, rec in build_records().items())
    CORPUS.write_text(f'{{\n  "build": {json.dumps(build_id())},\n  "records": {{\n{body}\n  }}\n}}\n')
    print(f"wrote {CORPUS}", file=sys.stderr)
