"""Reference implementations the production code is checked against.

The dense-array oracles work on full numpy tensors indexed by alphabet
position, with the channel tag as one extra axis of size 3 (untagged,
vacuum, fermion); they share no code path with the dict-based state
machinery.  ``labeled_campaign`` is the per-trial masking campaign that
the batched ``run_masking_campaign`` replaced.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from anyonmask.masker import MaskingCampaignResult, encode, random_unit_coeffs, verify_masking
from anyonmask.qstate import StateVector

TAG_ORDER = (None, "1", "eps")

# frozen label patterns of the two reference encoders, one triple per cell;
# row j lists the cells of basis input j
ROWS_D4 = (
    (("1", "1", "1"), ("e", "e", "e"), ("m", "m", "m"), ("eps", "eps", "eps")),
    (("1", "e", "eps"), ("e", "1", "m"), ("m", "eps", "e"), ("eps", "m", "1")),
    (("1", "m", "e"), ("e", "eps", "1"), ("m", "1", "eps"), ("eps", "e", "m")),
    (("1", "eps", "m"), ("e", "m", "eps"), ("m", "e", "1"), ("eps", "1", "e")),
)

ROWS_D3 = (
    (("1", "1", "1"), ("eps", "eps", "eps"), ("sigma", "sigma", "sigma")),
    (("1", "sigma", "eps"), ("eps", "1", "sigma"), ("sigma", "eps", "1")),
    (("1", "eps", "sigma"), ("eps", "sigma", "1"), ("sigma", "1", "eps")),
)


def dense_vector(state: StateVector, alphabet: tuple[str, ...]) -> np.ndarray:
    """State as a dense tensor of shape (d,)*n + (3,) with the tag axis last."""
    d = len(alphabet)
    n = state.n_registers
    index = {label: i for i, label in enumerate(alphabet)}
    tag_index = {tag: i for i, tag in enumerate(TAG_ORDER)}
    psi = np.zeros((d,) * n + (3,), dtype=complex)
    for ket, amp in state.items():
        pos = tuple(index[label] for label in ket.labels) + (tag_index[ket.tag],)
        psi[pos] += amp
    return psi


def dense_inner(s1: StateVector, s2: StateVector, alphabet: tuple[str, ...]) -> complex:
    return complex(np.vdot(dense_vector(s1, alphabet), dense_vector(s2, alphabet)))


def dense_norm(state: StateVector, alphabet: tuple[str, ...]) -> float:
    return float(np.linalg.norm(dense_vector(state, alphabet)))


def dense_partial_trace(
    state: StateVector, keep: set[int], alphabet: tuple[str, ...]
) -> np.ndarray:
    """Reduced density matrix on the kept registers via full outer products.

    The tag axis is always traced, matching the system-wide tag convention.
    Kept registers appear in ascending order, with the full d^k product basis.
    """
    psi = dense_vector(state, alphabet)
    n = state.n_registers
    kept = sorted(keep)
    other = [i for i in range(n) if i not in kept] + [n]  # trailing tag axis
    moved = np.moveaxis(psi, kept + other, range(n + 1))
    d = len(alphabet)
    flat = moved.reshape(d ** len(kept), -1)
    return flat @ flat.conj().T


@st.composite
def unit_coeffs(draw, d):
    """A hypothesis strategy for unit coefficient vectors of length d."""
    finite = st.floats(-1, 1, allow_nan=False)
    vec = np.array(
        [complex(draw(finite), draw(finite)) for _ in range(d)], dtype=complex
    )
    total = np.linalg.norm(vec)
    if total < 1e-3:
        vec = np.ones(d, dtype=complex)
        total = np.linalg.norm(vec)
    return vec / total


def labeled_campaign(scheme, trials: int, seed: int, tol: float) -> MaskingCampaignResult:
    """A masking campaign that encodes and verifies every trial on its own."""
    rng = np.random.default_rng(seed)
    alphabet = scheme.model.alphabet
    per_party = [0.0, 0.0, 0.0]
    failed = 0
    for _ in range(trials):
        coeffs = random_unit_coeffs(scheme.d, rng)
        report = verify_masking(encode(scheme, coeffs), alphabet, tol=tol, seed=seed)
        for party, deviation in enumerate(report.deviations):
            # a NaN sticks, where max(worst, nan) would keep the old worst
            if deviation > per_party[party] or math.isnan(deviation):
                per_party[party] = deviation
        if not report.verdict:
            failed += 1
    return MaskingCampaignResult(
        trials=trials,
        seed=seed,
        tol=tol,
        worst_deviation=float(np.max(per_party)),
        per_party_worst=tuple(per_party),
        failed_trials=failed,
        verdict=failed == 0,
    )
