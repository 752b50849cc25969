"""Acceptance suite: every gated claim at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Criterion 6 carries one sub-check that is mathematically
unattainable alongside the others; it is implemented as stated and
marked as a strict expected failure (see the notes in its docstring).
"""

import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from anyonmask.anyons import (
    EPS,
    E,
    M,
    SIGMA,
    VAC,
    abelian_c0,
    ising_like,
    monodromy_angle,
    phase_from_eighths,
    r_angle,
    validate_model,
)
from anyonmask.braid import circle, op_set, verify_invariance
from anyonmask.cli import main
from anyonmask.latin import find_mols_pair
from anyonmask.masker import (
    abelian_standard_scheme,
    bipartite_control,
    encode,
    ising_cyclic_scheme,
    random_unit_coeffs,
    run_masking_campaign,
)
from anyonmask.qstate import (
    BasisKet,
    StateVector,
    hs_distance,
    inner,
    partial_trace,
    product_basis,
)
from anyonmask.teleport import alice_projector_states, build_joint, permutation_encode, run_teleport
from helpers import ROWS_D3, max_amplitude_diff

MASKING_TOL = 1e-12
BRAID_TOL = 2e-12


def _report(line: str, ok: bool) -> None:
    print(f"ACCEPTANCE {line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


# criterion 1 -----------------------------------------------------------

ABELIAN_R_TABLE = {
    (E, M, EPS): 0,
    (M, E, EPS): 8,
    (E, EPS, M): 0,
    (EPS, E, M): 8,
    (EPS, M, E): 0,
    (M, EPS, E): 8,
    (E, E, VAC): 0,
    (M, M, VAC): 0,
    (EPS, EPS, VAC): 8,
}

ISING_C1_R_TABLE = {
    (EPS, EPS, VAC): 8,
    (SIGMA, SIGMA, VAC): 15,
    (SIGMA, SIGMA, EPS): 3,
    (EPS, SIGMA, SIGMA): 12,
    (SIGMA, EPS, SIGMA): 12,
}


def test_criterion_1_model_data_exact():
    abelian = abelian_c0()
    ok = True
    for (a, b, ch), k in ABELIAN_R_TABLE.items():
        ok &= r_angle(abelian, a, b, ch) == k
    ising = ising_like(1)
    for (a, b, ch), k in ISING_C1_R_TABLE.items():
        ok &= r_angle(ising, a, b, ch) == k
    ok &= ising.theta_eighths[SIGMA] == 1
    ok &= abs(phase_from_eighths(ising.theta_eighths[SIGMA]) - cmath.exp(1j * math.pi / 8)) <= 1e-15
    ok &= ising.kappa[SIGMA] == 1
    ok &= monodromy_angle(abelian, E, M, EPS) == 8
    ok &= monodromy_angle(ising, SIGMA, SIGMA, VAC) == (-2) % 16
    ok &= abs(phase_from_eighths(monodromy_angle(ising, SIGMA, SIGMA, VAC)) - cmath.exp(-1j * math.pi / 4)) <= 1e-15
    _report("1 model tables and monodromies exact", ok)


# criteria 2 and 3 ------------------------------------------------------

def test_criterion_2_abelian_masking_1000_trials():
    result = run_masking_campaign(abelian_standard_scheme(), trials=1000, seed=20240, tol=MASKING_TOL)
    _report(
        f"2 abelian masking, 1000 trials, worst deviation {result.worst_deviation:.3e}",
        result.verdict and result.worst_deviation <= MASKING_TOL,
    )


def test_criterion_3_ising_masking_1000_trials():
    result = run_masking_campaign(ising_cyclic_scheme(), trials=1000, seed=20241, tol=MASKING_TOL)
    _report(
        f"3 ising masking, 1000 trials, worst deviation {result.worst_deviation:.3e}",
        result.verdict and result.worst_deviation <= MASKING_TOL,
    )


# criterion 4 -----------------------------------------------------------

@pytest.mark.parametrize("model_kind", ["abelian", "ising"])
def test_criterion_4_braid_invariance_all_sequences(model_kind):
    scheme = abelian_standard_scheme() if model_kind == "abelian" else ising_cyclic_scheme()
    ops = op_set(model_kind)
    worst = 0.0
    failures = []
    count = 0
    for length in (1, 2, 3):
        for sequence in itertools.product(ops, repeat=length):
            report = verify_invariance(
                scheme, sequence, trials=100, tol=BRAID_TOL, seed=40_000 + count
            )
            worst = max(worst, report.worst_deviation)
            if not report.verdict:
                failures.append(";".join(op.token() for op in sequence))
            count += 1
    _report(
        f"4 {model_kind} braid invariance, {count} sequences x 100 trials, "
        f"worst deviation {worst:.3e}",
        not failures and worst <= BRAID_TOL,
    )


def test_criterion_4_ising_circling_matches_display():
    scheme = ising_cyclic_scheme()
    rng = np.random.default_rng(20244)
    coeffs = random_unit_coeffs(3, rng)
    out = circle(scheme.model, encode(scheme, coeffs), 1, 0)
    phases = {
        ("1", "1", "1"): 1.0,
        ("eps", "eps", "eps"): -1.0,
        ("sigma", "sigma", "sigma"): cmath.exp(-1j * math.pi / 4),
        ("1", "sigma", "eps"): 1.0,
        ("eps", "1", "sigma"): 1.0,
        ("sigma", "eps", "1"): -1.0,
        ("1", "eps", "sigma"): 1.0,
        ("eps", "sigma", "1"): -1.0,
        ("sigma", "1", "eps"): 1.0,
    }
    expected = StateVector(
        {
            BasisKet(labels): coeffs[j] / math.sqrt(3) * phases[labels]
            for j, row in enumerate(ROWS_D3)
            for labels in row
        }
    )
    error = max_amplitude_diff(out, expected)
    _report(f"4 ising circling termwise, amplitude error {error:.3e}", error <= 1e-12)


# criterion 5 -----------------------------------------------------------

def test_criterion_5_orthogonality_oracles():
    ok = True
    for scheme in (abelian_standard_scheme(), ising_cyclic_scheme()):
        rows = [encode(scheme, basis) for basis in np.eye(scheme.d)]
        for i, row_i in enumerate(rows):
            for j, row_j in enumerate(rows):
                target = 1.0 if i == j else 0.0
                ok &= abs(inner(row_i, row_j) - target) <= 1e-12
    states = alice_projector_states()
    for i, si in enumerate(states):
        norm_i = math.sqrt(inner(si, si).real)
        ok &= abs(norm_i - 3.0) <= 1e-12
        for sj in states[i + 1 :]:
            ok &= abs(inner(si, sj)) <= 1e-12
    _report("5 encoder rows orthonormal; projector states orthogonal with norm 3", ok)


# criterion 6 -----------------------------------------------------------

def test_criterion_6_teleport_probabilities_and_fidelities():
    rng = np.random.default_rng(20246)
    ok = True
    worst_prob = 0.0
    worst_fid = 0.0
    for _ in range(100):
        run = run_teleport(random_unit_coeffs(3, rng))
        for outcome in run.outcomes:
            worst_prob = max(worst_prob, abs(outcome.probability - 1 / 3))
            worst_fid = max(worst_fid, abs(outcome.fidelity - 1.0))
        ok &= run.verdict
    ok &= worst_prob <= 1e-12 and worst_fid <= 1e-12
    _report(
        f"6 teleport, 100 trials, probability error {worst_prob:.3e}, "
        f"fidelity error {worst_fid:.3e}",
        ok,
    )


def test_criterion_6_alice_registers_premeasurement_masked():
    rng = np.random.default_rng(20247)
    basis = product_basis(("1", "eps", "sigma"), 1)
    from anyonmask.qstate import DensityMatrix

    mixed = DensityMatrix.maximally_mixed(basis)
    worst = 0.0
    for _ in range(100):
        encoded = permutation_encode(build_joint(random_unit_coeffs(3, rng)))
        for party in (0, 1):
            worst = max(worst, hs_distance(partial_trace(encoded, {party}, basis), mixed))
    _report(
        f"6 alice pre-measurement marginals I/3, worst deviation {worst:.3e}",
        worst <= 1e-12,
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable alongside exact 1/3 outcome probabilities: when the "
        "measured pair is supported on the three orthogonal phase-pattern "
        "states with input-independent weights, the held register's "
        "populations are forced to equal the input's squared amplitudes, "
        "so its pre-measurement marginal cannot be I/3 for non-uniform "
        "inputs (registers 0 and 1 are I/3 instead; see the companion check)"
    ),
)
def test_criterion_6_held_register_premeasurement_marginal():
    """Bob's pre-measurement marginal is I/3 for all inputs (as stated)."""
    rng = np.random.default_rng(20248)
    basis = product_basis(("1", "eps", "sigma"), 1)
    from anyonmask.qstate import DensityMatrix

    mixed = DensityMatrix.maximally_mixed(basis)
    worst = 0.0
    for _ in range(100):
        encoded = permutation_encode(build_joint(random_unit_coeffs(3, rng)))
        worst = max(worst, hs_distance(partial_trace(encoded, {2}, basis), mixed))
    _report(
        f"6 held-register pre-measurement marginal I/3, worst deviation {worst:.3e}",
        worst <= 1e-12,
    )


# criterion 7 -----------------------------------------------------------

def test_criterion_7_negative_controls():
    abelian = bipartite_control(abelian_c0())
    ising = bipartite_control(ising_like(1))
    no_pair = find_mols_pair(2)
    broken = replace(
        abelian_c0(),
        r_eighths={**abelian_c0().r_eighths, (M, E, EPS): 0},
    )
    broken_report = validate_model(broken)
    named = any("abelian-distinct-monodromy" in v for v in broken_report.violations)
    ok = (
        abelian.max_distance > 0.1
        and ising.max_distance > 0.1
        and no_pair is None
        and not broken_report.ok
        and named
    )
    _report(
        f"7 negative controls: bipartite leaks {abelian.max_distance:.3f}/"
        f"{ising.max_distance:.3f}, no order-2 pair, corrupted table named",
        ok,
    )


# criterion 8 -----------------------------------------------------------

def test_criterion_8_byte_identical_reports(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["verify", "--model", "ising", "--trials", "1000", "--seed", "7"]
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    _report(
        "8 determinism: two seeded 1000-trial runs byte-identical",
        code_a == 0 and code_b == 0 and identical,
    )
