"""Seeded trial batches evaluated through per-party reduced operators.

A braid sequence (or any linear map) sends the d encoder rows to d new
rows, and a trial with coefficients c is the combination sum_j c_j row_j.
Party p's marginal is then quadratic in c: rho_p = sum_jj' c_j conj(c_j')
K_p[j, j'] with K_p[j, j'] = Tr_{not p} |row_j><row_j'|.  The rows arrive
as one dense array over their three registers and the channel tags (the
layout of ``qstate.TAGS``), the K_p are formed once from it, and after
that every trial costs one small matrix product; the trace of its party-0
marginal is its squared norm.  Coefficients are drawn exactly as
successive ``random_unit_coeffs`` calls, so a seed names the same trials
here as in the labeled path; the worst trial's coefficients leave the
batch with it for a labeled replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .qstate import check_seed, check_tol

# Trials are evaluated this many at a time, so the arrays of one chunk stay
# small whatever the trial count.  A chunk also pays a fixed cost of about
# twenty numpy calls.  On the benchmark's `campaign` workload of 1000-trial
# campaigns (three 20 s runs per value, one thread, 2-vCPU Xeon VM), chunks
# of 256 (the earlier value), 512, 1024 and 2048 gave 520k-601k, 576k-723k,
# 700k-742k and 747k-774k trials/s at 40.3-40.7, 40.9-41.1, 41.7-41.9 and
# 41.9-42.1 MB peak RSS.  From 1024 up a campaign is one chunk and the same
# computation, so 1024 and 2048 differ by noise only; the chunk is 1024,
# the smallest that holds the campaign whole.
TRIAL_CHUNK = 1024


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


# The axes of rows[j, a0, a1, a2, tag] with party p's register moved next
# to j and the others kept in order: np.moveaxis(rows, p + 1, 1) as a plain
# transpose, without moveaxis's per-call argument handling.
_PARTY_FIRST = ((0, 1, 2, 3, 4), (0, 2, 1, 3, 4), (0, 3, 1, 2, 4))


def _reduced_operators(rows: np.ndarray) -> np.ndarray:
    """K_p[j*n + j', a*d + b] = <a| Tr_{not p} |row_j><row_j'| |b>, parties side by side.

    For coefficients c, party p's marginal is vec(c c^dagger) @ K_p with
    vec(c c^dagger)[j*n + j'] = c_j conj(c_j').  ``rows[j, a0, a1, a2, tag]``
    holds the n rows in the dense layout of ``qstate.TAGS`` (any number of
    tag slots), and K_p contracts them with their conjugate over the other
    two registers and the tag.  Shape (n^2, 3 d^2).
    """
    if rows.ndim != 5:
        raise ValueError(
            f"rows must have shape (n, d, d, d, tags), got {rows.shape}: "
            f"each row has {max(rows.ndim - 2, 0)} registers, expected 3"
        )
    if not rows.shape[1] == rows.shape[2] == rows.shape[3]:
        raise ValueError(
            f"rows must have shape (n, d, d, d, tags), got {rows.shape}: "
            f"a register has a label outside the {rows.shape[1]} of the first"
        )
    n, d = rows.shape[:2]
    k = np.empty((n, n, 3, d, d), dtype=complex)
    for party, axes in enumerate(_PARTY_FIRST):
        flat = rows.transpose(axes).reshape(n * d, -1)
        k[:, :, party] = (flat @ flat.conj().T).reshape(n, d, n, d).transpose(0, 2, 1, 3)
    return k.reshape(n * n, 3 * d * d)


def _trial_chunks(
    rows: np.ndarray,
    trials: int,
    seed: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(coeffs, deviations, norm defects) of the seeded trials, TRIAL_CHUNK at a time.

    Trial t is the state sum_j c_tj rows[j] for the t-th
    ``random_unit_coeffs(n, default_rng(seed))`` draw c_t.
    ``deviations[t, p]`` is the Hilbert-Schmidt distance of party p's
    marginal from I/d.  The squared norm of the state is the trace of any
    marginal, party 0's here, and before the map it was 1 (``encode`` of a
    unit vector on orthonormal rows), so the norm defect is
    |sqrt(tr rho_0) - 1|.
    """
    kops = _reduced_operators(rows)
    n, d = rows.shape[:2]
    # The block draw equals the per-trial draw only while BLAS sums as
    # np.linalg.norm does; a numpy that rounds otherwise would shift every
    # seeded trial, so trial 0 is checked against ``random_unit_coeffs``,
    # drawn from the generator's starting state and then undone.
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    first = random_unit_coeffs(n, rng)
    rng.bit_generator.state = state
    for start in range(0, trials, TRIAL_CHUNK):
        size = min(TRIAL_CHUNK, trials - start)
        coeffs = random_unit_coeff_block(n, size, rng)
        if start == 0 and not np.array_equal(coeffs[0], first):
            raise RuntimeError(f"seed {seed}: the block draw of trial 0 is not the per-trial draw")
        cc = (coeffs[:, :, None] * coeffs[:, None, :].conj()).reshape(size, n * n)
        if size == 1:
            # numpy multiplies one row as a vector (BLAS gemv), rounding apart
            # from a longer chunk; as two equal rows it takes the matrix path
            cc = np.repeat(cc, 2, axis=0)
        diff = (cc @ kops)[:size].reshape(size, 3, d * d)
        # tr rho_0: its d diagonal entries added one after another, the order
        # in which numpy sums that short strided axis, without the fixed cost
        # of a reduction (tests/test_batch.py holds it to that sum bit for bit)
        trace = diff[:, 0, 0].real.copy()
        for k in range(d + 1, d * d, d + 1):
            trace += diff[:, 0, k].real
        norms = np.sqrt(np.abs(trace))
        # I/d is 1/d on the d diagonal entries of each party's marginal and
        # exactly 0 elsewhere, where x - 0.0 is x; one diagonal entry of all
        # 3 * size marginals at a time, a long loop where a strided
        # diff[:, :, ::d + 1] runs 3 * size loops of d
        marginals = diff.reshape(3 * size, d * d)
        for k in range(0, d * d, d + 1):
            column = marginals[:, k]
            column -= 1.0 / d
        squares = np.square(diff.view(np.float64), out=diff.view(np.float64))
        deviations = np.sqrt(squares.sum(axis=2))
        # freed here, or they would live on beside the next chunk's
        del cc, diff, marginals, column, squares
        yield coeffs, deviations, np.abs(norms - 1)


@dataclass(frozen=True)
class TrialBatch:
    """Aggregates of a seeded trial batch; a NaN anywhere surfaces in them."""

    per_party_worst: tuple[float, ...]
    failed_trials: int
    worst_trial: int  # first trial with the largest deviation, a NaN counting as largest
    worst_coeffs: tuple[complex, ...]  # that trial's coefficients, as drawn
    norm_defect: float

    @property
    def worst_deviation(self) -> float:
        return float(np.max(self.per_party_worst))


def evaluate_trials(
    rows: np.ndarray,
    trials: int,
    seed: int,
    tol: float,
) -> TrialBatch:
    """Check every seeded trial's marginals through the rows' reduced operators.

    ``rows`` are the images of the orthonormal encoder rows under a linear
    map (a braid sequence, say, or the identity), as one dense array
    ``rows[j, a0, a1, a2, tag]``, so every trial is a combination of
    them: the rows are reduced once per party and each
    trial costs one small matrix product.  A trial fails when any party's
    deviation is above ``tol`` (or NaN).  See ``_trial_chunks`` for what a
    trial is.
    """
    check_seed(trials, "trials", positive=True)
    check_tol(tol)
    check_seed(seed)
    per_party = np.zeros(3)
    failed = 0
    worst, worst_trial, worst_coeffs = -1.0, 0, ()
    defect = 0.0
    start = 0
    for coeffs, deviations, defects in _trial_chunks(rows, trials, seed):
        per_party = np.maximum(per_party, deviations.max(axis=0))
        # a trial's largest deviation is NaN if any of its deviations is:
        # np.maximum propagates a NaN as a reduction over the three would
        trial_worst = np.maximum(np.maximum(deviations[:, 0], deviations[:, 1]), deviations[:, 2])
        failed += int(np.count_nonzero(~(trial_worst <= tol)))
        i = int(np.argmax(trial_worst))
        value = float(trial_worst[i])
        if value > worst or (math.isnan(value) and not math.isnan(worst)):
            worst, worst_trial, worst_coeffs = value, start + i, coeffs[i]
        defect = np.maximum(defect, defects.max())
        start += len(deviations)
    return TrialBatch(
        per_party_worst=tuple(float(x) for x in per_party),
        failed_trials=failed,
        worst_trial=worst_trial,
        worst_coeffs=tuple(complex(c) for c in worst_coeffs),
        norm_defect=float(defect),
    )
