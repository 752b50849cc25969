"""SHA-256 digests of every report and stdout of a fixed mix of CLI commands.

The mix is the benchmark's ``cli`` workload at seeds 7 and 11: two 1000-trial
campaigns, six braid-invariance runs, the MOLS search at orders 3 to 5 and
three teleports per seed.  Its argv lists are written out here, so the check
does not move when the benchmark does.  The commands run in one process, one
after another, as ``anyonmask.cli.main`` callers run them.

The bits depend on the numpy and BLAS build and on the OpenBLAS kernel it
runs (picked for the CPU at load time, or forced by ``OPENBLAS_CORETYPE``),
and the golden file records the build and kernel it was made on: on another
the test skips and names both.
Regenerate the file with ``PYTHONPATH=src python tests/test_cli_golden.py``;
that is a change to a check, to be recorded with the reason.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from anyonmask.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_mix.json"

_BRAID = ("--trials", "100", "--tol", "2e-12")

MIX: dict[int, list[tuple[str, ...]]] = {
    7: [
        ("verify", "--model", "abelian", "--trials", "1000", "--seed", "7"),
        ("verify", "--model", "ising", "--trials", "1000", "--seed", "8"),
        ("braid", "--model", "abelian", "--ops", "cAB;cAC;xBC", *_BRAID, "--seed", "9"),
        ("braid", "--model", "abelian", "--ops", "cAC;xAB;xBC", *_BRAID, "--seed", "10"),
        ("braid", "--model", "abelian", "--ops", "cBC;cAB;cBC", *_BRAID, "--seed", "11"),
        ("braid", "--model", "ising", "--ops", "xAB;cAB;cBC", *_BRAID, "--seed", "12"),
        ("braid", "--model", "ising", "--ops", "cBC;cAB;xAB", *_BRAID, "--seed", "13"),
        ("braid", "--model", "ising", "--ops", "cBC;cBC;cBC", *_BRAID, "--seed", "14"),
        ("mols", "--dim", "3"),
        ("mols", "--dim", "4"),
        ("mols", "--dim", "5"),
        ("teleport", "--input=-0.51902603117603985-0.25762001043162380i,"
         "0.03147905390231383-0.32475545150161239i,0.70146625964356102+0.25638245192276693i"),
        ("teleport", "--input=0.19659492634181511-0.01611367113692169i,"
         "0.05806853722124043+0.38301500803988409i,-0.51255801564729930-0.74047458682661293i"),
        ("teleport", "--input=-0.14095075290773468-0.56727491125570095i,"
         "-0.58559778625431436-0.07241068762925550i,-0.39719199118593401-0.39038763748796762i"),
    ],
    11: [
        ("verify", "--model", "abelian", "--trials", "1000", "--seed", "11"),
        ("verify", "--model", "ising", "--trials", "1000", "--seed", "12"),
        ("braid", "--model", "abelian", "--ops", "cAB;cBC", *_BRAID, "--seed", "13"),
        ("braid", "--model", "abelian", "--ops", "cAC;xAB", *_BRAID, "--seed", "14"),
        ("braid", "--model", "abelian", "--ops", "cAC;cAC;cAC", *_BRAID, "--seed", "15"),
        ("braid", "--model", "ising", "--ops", "xAB;xBC", *_BRAID, "--seed", "16"),
        ("braid", "--model", "ising", "--ops", "cAC;xAB;cAC", *_BRAID, "--seed", "17"),
        ("braid", "--model", "ising", "--ops", "cAC;t3;cAC", *_BRAID, "--seed", "18"),
        ("mols", "--dim", "3"),
        ("mols", "--dim", "4"),
        ("mols", "--dim", "5"),
        ("teleport", "--input=-0.19890123344180397+0.28168548143033378i,"
         "0.21487044310823139-0.69671254075735101i,-0.02114452087434751+0.59081877623649803i"),
        ("teleport", "--input=-0.07798949272266607-0.30659590006430204i,"
         "0.55025595553030948+0.37454026006939040i,-0.11044799880723416+0.66682517171945321i"),
        ("teleport", "--input=-0.10470603114976794-0.44995789536923886i,"
         "-0.07898901193117841-0.78292197477574932i,0.35449970839816575+0.20420189418499871i"),
    ],
}


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs, or "unknown" without that library."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def build_id() -> dict[str, str]:
    """The numpy version, BLAS library and BLAS kernel the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_kernel": blas_kernel(),
    }


def _sha256(data: Optional[bytes]) -> Optional[str]:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_mix(seed: int, out_dir: Path) -> list[dict[str, Optional[str]]]:
    """Digests of each command's ``--out`` report (mols writes none) and stdout."""
    digests = []
    for i, argv in enumerate(MIX[seed]):
        report = None if argv[0] == "mols" else out_dir / f"{seed}-{i}.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(list(argv) + ([] if report is None else ["--out", str(report)]))
        assert code == 0, f"{shlex.join(argv)} exited {code}"
        digests.append({
            "command": shlex.join(argv),
            "report_sha256": _sha256(None if report is None else report.read_bytes()),
            "stdout_sha256": _sha256(stdout.getvalue().encode()),
        })
    return digests


@pytest.mark.parametrize("seed", sorted(MIX))
def test_cli_mix_matches_golden_digests(seed, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["build"] != build_id():
        pytest.skip(f"digests were made with {golden['build']}; this is {build_id()}")
    want = golden["mix"][str(seed)]
    got = run_mix(seed, tmp_path)
    assert [entry["command"] for entry in got] == [entry["command"] for entry in want]
    for new, old in zip(got, want):
        for field in ("report_sha256", "stdout_sha256"):
            if new[field] != old[field]:
                pytest.fail(f"seed {seed}: first difference at `{new['command']}`: {field} {new[field]} != {old[field]}")


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="Prescott is an x86-64 OpenBLAS kernel"
)
def test_the_goldens_skip_under_a_second_blas_kernel():
    # a kernel sums report floats in its own order: the golden and corpus tests
    # failed under another one, where they must skip and name both kernels
    if blas_kernel() == "unknown":
        pytest.skip("numpy bundles no scipy-openblas library whose kernel could be forced")
    tests = Path(__file__).parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         f"{tests / 'test_cli_golden.py'}::test_cli_mix_matches_golden_digests",
         f"{tests / 'test_record_corpus.py'}::test_records_match_the_corpus"],
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"}, cwd=tests.parent,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0 and "failed" not in proc.stdout and "3 skipped" in proc.stdout, proc.stdout
    golden = json.loads(GOLDEN.read_text())["build"]["blas_kernel"]
    skips = [re.findall(r"'blas_kernel': '(\w+)'", line) for line in proc.stdout.splitlines()
             if line.startswith("SKIPPED")]
    assert len(skips) == 2 and all(kernels[0] == golden != kernels[1] for kernels in skips), proc.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        mix = {str(seed): run_mix(seed, Path(scratch)) for seed in sorted(MIX)}
    GOLDEN.write_text(json.dumps({"build": build_id(), "mix": mix}, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
