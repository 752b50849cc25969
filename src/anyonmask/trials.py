"""Seeded trial batches evaluated through per-party reduced operators.

A braid sequence (or any linear map) sends the d encoder rows to d new
rows, and a trial with coefficients c is the combination sum_j c_j row_j.
Party p's marginal is then quadratic in c: rho_p = sum_jj' c_j conj(c_j')
K_p[j, j'] with K_p[j, j'] = Tr_{not p} |row_j><row_j'|.  The K_p are formed
once from labeled partial traces, after which every trial costs one small
matrix product.  Coefficients are drawn exactly as successive
``random_unit_coeffs`` calls, so a seed names the same trials here as in
the labeled path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .qstate import StateVector, add, check_tol, inner, partial_trace, product_basis, scale

# Trials are evaluated this many at a time, so the arrays of one chunk stay
# small whatever the trial count.
TRIAL_CHUNK = 128


def random_unit_coeffs(d: int, rng: np.random.Generator) -> np.ndarray:
    """d independent standard complex Gaussians, normalized to the unit sphere."""
    raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return raw / np.linalg.norm(raw)


def random_unit_coeff_block(d: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` successive ``random_unit_coeffs(d, rng)`` draws as rows, bit for bit."""
    draws = rng.standard_normal((trials, 2, d))
    raw = draws[:, 0] + 1j * draws[:, 1]
    # np.linalg.norm of one vector adds two BLAS dot products, re.re + im.im;
    # a stacked matmul makes the same calls, where a sum along axis 1 rounds
    # differently in the last bit.
    re, im = raw.real[:, None, :], raw.imag[:, None, :]
    squares = (re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, :, 0]
    usable = np.isfinite(squares) & (squares > 0)
    if not usable.all():
        bad = int(np.argmin(usable))
        raise ValueError(f"coefficient draw {bad} is not finite and nonzero: {raw[bad]}")
    return raw / np.sqrt(squares)


def replay_coeffs(d: int, seed: int, trial: int) -> np.ndarray:
    """The coefficients of trial ``trial`` of a batch seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    for start in range(0, trial, TRIAL_CHUNK):
        rng.standard_normal((min(TRIAL_CHUNK, trial - start), 2, d))
    return random_unit_coeffs(d, rng)


def _reduced_operators(rows: Sequence[StateVector], alphabet: Sequence[str]) -> np.ndarray:
    """K_p[j*n + j', a*d + b] = <a| Tr_{not p} |row_j><row_j'| |b>, parties side by side.

    For coefficients c, party p's marginal is vec(c c^dagger) @ K_p with
    vec(c c^dagger)[j*n + j'] = c_j conj(c_j').  The cross terms come from
    ``partial_trace`` by polarization: with T(s) = Tr_{not p}|s><s|,
    |a><b| traces to ((T(a+b) - T(a) - T(b)) + i (T(a+ib) - T(a) - T(b))) / 2.
    Shape (n^2, 3 d^2).
    """
    n, d = len(rows), len(alphabet)
    basis = product_basis(alphabet, 1)
    k = np.zeros((n, n, 3, d, d), dtype=complex)
    for party in range(3):
        def trace(state: StateVector) -> np.ndarray:
            return partial_trace(state, {party}, basis).entries

        diag = [trace(row) for row in rows]
        for j in range(n):
            k[j, j, party] = diag[j]
            for jj in range(j + 1, n):
                both = diag[j] + diag[jj]
                sym = trace(add(rows[j], rows[jj])) - both
                skew = 1j * (trace(add(rows[j], scale(rows[jj], 1j))) - both)
                k[j, jj, party] = (sym + skew) / 2
                k[jj, j, party] = (sym - skew) / 2
    return k.reshape(n * n, 3 * d * d)


def _gram(rows: Sequence[StateVector]) -> np.ndarray:
    """G[j*n + j'] = <row_j'|row_j>, so |sum_j c_j row_j|^2 = vec(c c^dagger) @ G."""
    return np.array([inner(b, a) for a in rows for b in rows])


def _trial_chunks(
    pre_rows: Sequence[StateVector],
    post_rows: Sequence[StateVector],
    alphabet: Sequence[str],
    trials: int,
    seed: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(coeffs, deviations, norm defects) of the seeded trials, TRIAL_CHUNK at a time.

    Trial t maps the state sum_j c_tj pre_rows[j] to sum_j c_tj post_rows[j]
    for the t-th ``random_unit_coeffs(n, default_rng(seed))`` draw c_t.
    ``deviations[t, p]`` is the Hilbert-Schmidt distance of party p's
    marginal after the map from I/d, and the norm defect is
    |norm(after) - norm(before)|.
    """
    n, d = len(post_rows), len(alphabet)
    if len(pre_rows) != n:
        raise ValueError(f"expected {n} rows before the map, got {len(pre_rows)}")
    kops = _reduced_operators(post_rows, alphabet)
    grams = np.stack([_gram(post_rows), _gram(pre_rows)], axis=1)
    target = (np.eye(d) / d).reshape(-1)
    rng = np.random.default_rng(seed)
    for start in range(0, trials, TRIAL_CHUNK):
        size = min(TRIAL_CHUNK, trials - start)
        coeffs = random_unit_coeff_block(n, size, rng)
        cc = (coeffs[:, :, None] * coeffs[:, None, :].conj()).reshape(size, n * n)
        diff = np.einsum("tk,kp->tp", cc, kops).reshape(size, 3, d * d)
        diff -= target
        squares = np.square(diff.view(np.float64), out=diff.view(np.float64))
        deviations = np.sqrt(squares.sum(axis=2))
        norms = np.sqrt(np.abs(np.einsum("tk,kp->tp", cc, grams).real))
        yield coeffs, deviations, np.abs(norms[:, 0] - norms[:, 1])


@dataclass(frozen=True)
class TrialBatch:
    """Aggregates of a seeded trial batch; a NaN anywhere surfaces in them."""

    per_party_worst: tuple[float, ...]
    failed_trials: int
    worst_trial: int  # first trial with the largest deviation, a NaN counting as largest
    norm_defect: float

    @property
    def worst_deviation(self) -> float:
        return float(np.max(self.per_party_worst))


def evaluate_trials(
    pre_rows: Sequence[StateVector],
    post_rows: Sequence[StateVector],
    alphabet: Sequence[str],
    trials: int,
    seed: int,
    tol: float,
) -> TrialBatch:
    """Check every seeded trial's marginals through the rows' reduced operators.

    The map from ``pre_rows`` to ``post_rows`` (a braid sequence, say) is
    linear, so every trial is a combination of the same rows: the rows are
    reduced once per party and each trial costs one small matrix product.
    A trial fails when any party's deviation is above ``tol`` (or NaN).
    See ``_trial_chunks`` for what a trial is.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    check_tol(tol)
    per_party = np.zeros(3)
    failed = 0
    worst, worst_trial = -1.0, 0
    defect = 0.0
    start = 0
    for _, deviations, defects in _trial_chunks(pre_rows, post_rows, alphabet, trials, seed):
        per_party = np.maximum(per_party, deviations.max(axis=0))
        failed += int(np.count_nonzero(~(deviations <= tol).all(axis=1)))
        trial_worst = deviations.max(axis=1)
        i = int(np.argmax(trial_worst))
        if trial_worst[i] > worst or (np.isnan(trial_worst[i]) and not np.isnan(worst)):
            worst, worst_trial = trial_worst[i], start + i
        defect = np.maximum(defect, defects.max())
        start += len(deviations)
    return TrialBatch(
        per_party_worst=tuple(float(x) for x in per_party),
        failed_trials=failed,
        worst_trial=worst_trial,
        norm_defect=float(defect),
    )
