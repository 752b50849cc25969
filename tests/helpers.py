"""Reference implementations the production code is checked against.

The dense-array oracles work on full numpy tensors indexed by alphabet
position, with the channel tag as one extra axis of size 3 (untagged,
vacuum, fermion); they share no code path with the dict-based state
machinery.  ``labeled_campaign`` is the per-trial masking campaign that
the batched ``run_masking_campaign`` replaced, ``reference_evaluate_trials``
and ``reference_partial_trace`` are the batched kernel and the partial
trace as first written, the ``reference_*encode*`` functions are the
dict loops that the dense encoder rows replaced, and the ``reference_*``
braid ops are the per-term dict loops that the compiled op tables
replaced: each term's labels are checked and its phase looked up anew.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from anyonmask.anyons import EPS, SIGMA, VAC, fuse, monodromy_angle, phase_from_eighths, r_angle
from anyonmask.braid import CIRCLE, EXCHANGE, SPLIT, ChannelConflictError
from anyonmask.masker import MaskingCampaignResult, encode, random_unit_coeffs, verify_masking
from anyonmask.qstate import BasisKet, StateVector
from anyonmask.trials import TrialBatch, random_unit_coeff_block

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


def max_amplitude_diff(s1: StateVector, s2: StateVector) -> float:
    """Largest termwise amplitude difference between two states."""
    kets = set(s1.amplitudes) | set(s2.amplitudes)
    if not kets:
        return 0.0
    return max(abs(s1.amplitude(k) - s2.amplitude(k)) for k in kets)


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


def reference_encode_row(scheme, j: int) -> StateVector:
    """Encoder row j as a dict loop over the columns of the triple."""
    alphabet, (a, b, c) = scheme.model.alphabet, (scheme.triple.a, scheme.triple.b, scheme.triple.c)
    amp = 1.0 / math.sqrt(scheme.d)
    return StateVector(
        {
            BasisKet((alphabet[a.cells[j][k]], alphabet[b.cells[j][k]], alphabet[c.cells[j][k]])): amp
            for k in range(scheme.d)
        }
    )


def reference_encode(scheme, coeffs) -> StateVector:
    """sum_j coeffs[j] * row_j as a dict loop, adding the amplitudes of a repeated ket."""
    alphabet, (a, b, c) = scheme.model.alphabet, (scheme.triple.a, scheme.triple.b, scheme.triple.c)
    amp = 1.0 / math.sqrt(scheme.d)
    out: dict[BasisKet, complex] = {}
    for j in range(scheme.d):
        weight = coeffs[j] * amp
        for k in range(scheme.d):
            ket = BasisKet((alphabet[a.cells[j][k]], alphabet[b.cells[j][k]], alphabet[c.cells[j][k]]))
            out[ket] = out.get(ket, 0j) + weight
    return StateVector(out)


def reference_bipartite_encode(triple, alphabet, coeffs) -> StateVector:
    """The two-register encoder over (B, C) as a dict loop."""
    d = triple.d
    amp = 1.0 / math.sqrt(d)
    out: dict[BasisKet, complex] = {}
    for j in range(d):
        for k in range(d):
            ket = BasisKet((alphabet[triple.b.cells[j][k]], alphabet[triple.c.cells[j][k]]))
            out[ket] = out.get(ket, 0j) + coeffs[j] * amp
    return StateVector(out)


def labeled_campaign(scheme, trials: int, seed: int, tol: float) -> MaskingCampaignResult:
    """A masking campaign that encodes and verifies every trial on its own."""
    rng = np.random.default_rng(seed)
    alphabet = scheme.model.alphabet
    per_party = [0.0, 0.0, 0.0]
    failed = 0
    for _ in range(trials):
        coeffs = random_unit_coeffs(scheme.d, rng)
        report = verify_masking(encode(scheme, coeffs), alphabet, tol=tol)
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


def reference_partial_trace(state: StateVector, keep, basis=None):
    """(basis, rho) as ``qstate.partial_trace`` first built them: label tuples
    from generators and rho accumulated entry by entry in a numpy array, in
    the same term order."""
    kept = sorted(set(keep))
    traced = [i for i in range(state.n_registers) if i not in kept]
    groups: dict = {}
    for ket, amp in state.items():
        kept_labels = tuple(ket.labels[i] for i in kept)
        env = (tuple(ket.labels[i] for i in traced), ket.tag)
        groups.setdefault(env, []).append((kept_labels, amp))
    if basis is None:
        basis = tuple(sorted({kl for members in groups.values() for kl, _ in members}))
    else:
        basis = tuple(tuple(b) for b in basis)
    index = {b: i for i, b in enumerate(basis)}
    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    for members in groups.values():
        for kb, ab in members:
            for kc, ac in members:
                rho[index[kb], index[kc]] += ab * ac.conjugate()
    return basis, rho


# The trial kernel as first batched, kept to hold the production kernel to
# the same floating-point results bit for bit: K through np.moveaxis,
# chunks of 128, a second generator for the trial-0 check, the trace of the
# party-0 marginal as a strided sum and the failed count over every
# deviation.
REFERENCE_CHUNK = 128


def reference_trial_chunks(rows: np.ndarray, trials: int, seed: int):
    n, d = rows.shape[:2]
    k = np.empty((n, n, 3, d, d), dtype=complex)
    for party in range(3):
        flat = np.moveaxis(rows, party + 1, 1).reshape(n * d, -1)
        k[:, :, party] = (flat @ flat.conj().T).reshape(n, d, n, d).transpose(0, 2, 1, 3)
    kops = k.reshape(n * n, 3 * d * d)
    target = (np.eye(d) / d).reshape(-1)
    first = random_unit_coeffs(n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for start in range(0, trials, REFERENCE_CHUNK):
        size = min(REFERENCE_CHUNK, trials - start)
        coeffs = random_unit_coeff_block(n, size, rng)
        if start == 0 and not np.array_equal(coeffs[0], first):
            raise RuntimeError(f"seed {seed}: the block draw of trial 0 is not the per-trial draw")
        cc = (coeffs[:, :, None] * coeffs[:, None, :].conj()).reshape(size, n * n)
        diff = (cc @ kops).reshape(size, 3, d * d)
        norms = np.sqrt(np.abs(diff[:, 0, :: d + 1].real.sum(axis=1)))
        diff -= target
        squares = np.square(diff.view(np.float64), out=diff.view(np.float64))
        deviations = np.sqrt(squares.sum(axis=2))
        yield coeffs, deviations, np.abs(norms - 1)


def reference_evaluate_trials(
    rows: np.ndarray, trials: int, seed: int, tol: float, chunks=reference_trial_chunks
) -> TrialBatch:
    per_party = np.zeros(3)
    failed = 0
    worst, worst_trial, worst_coeffs = -1.0, 0, ()
    defect = 0.0
    start = 0
    for coeffs, deviations, defects in chunks(rows, trials, seed):
        per_party = np.maximum(per_party, deviations.max(axis=0))
        failed += int(np.count_nonzero(~(deviations <= tol).all(axis=1)))
        trial_worst = deviations.max(axis=1)
        i = int(np.argmax(trial_worst))
        if trial_worst[i] > worst or (np.isnan(trial_worst[i]) and not np.isnan(worst)):
            worst, worst_trial, worst_coeffs = trial_worst[i], start + i, coeffs[i]
        defect = np.maximum(defect, defects.max())
        start += len(deviations)
    return TrialBatch(
        per_party_worst=tuple(float(x) for x in per_party),
        failed_trials=failed,
        worst_trial=worst_trial,
        worst_coeffs=tuple(complex(c) for c in worst_coeffs),
        norm_defect=float(defect),
    )


INV_SQRT2 = 1.0 / math.sqrt(2.0)


def reference_exchange(model, state, x, y, mode=SPLIT):
    lo, hi = min(x, y), max(x, y)
    out = {}

    def put(ket, amp):
        out[ket] = out.get(ket, 0j) + amp

    for ket, amp in state.items():
        a, b = ket.labels[lo], ket.labels[hi]
        swapped = list(ket.labels)
        swapped[lo], swapped[hi] = b, a
        labels = tuple(swapped)
        channels = fuse(model, a, b)
        if len(channels) == 1:
            phase = phase_from_eighths(r_angle(model, a, b, channels[0]))
            put(BasisKet(labels, ket.tag), amp * phase)
            continue
        if ket.tag is not None:
            if mode != SPLIT and mode != ket.tag:
                raise ChannelConflictError(
                    f"term {ket} already fuses in channel {ket.tag!r}; cannot resolve to {mode!r}"
                )
            phase = phase_from_eighths(r_angle(model, a, b, ket.tag))
            put(BasisKet(labels, ket.tag), amp * phase)
        elif mode == SPLIT:
            for channel in channels:
                phase = phase_from_eighths(r_angle(model, a, b, channel))
                put(BasisKet(labels, channel), amp * phase * INV_SQRT2)
        else:
            phase = phase_from_eighths(r_angle(model, a, b, mode))
            put(BasisKet(labels, mode), amp * phase)
    return StateVector(out)


def reference_circle(model, state, x, y):
    out = {}
    for ket, amp in state.items():
        a, b = ket.labels[x], ket.labels[y]
        channels = fuse(model, a, b)
        if len(channels) > 1:
            channel = ket.tag if ket.tag is not None else VAC
            angle = monodromy_angle(model, a, b, channel)
        elif model.kind == "ising" and a == EPS and b == EPS:
            angle = 8
        else:
            angle = monodromy_angle(model, a, b, channels[0])
        out[ket] = out.get(ket, 0j) + amp * phase_from_eighths(angle)
    return StateVector(out)


def reference_tripartite_braid(model, state):
    r1, reps = r_angle(model, SIGMA, SIGMA, VAC), r_angle(model, SIGMA, SIGMA, EPS)
    kappa_shift = 0 if model.kappa[SIGMA] == 1 else 8
    out = {}

    def put(ket, amp):
        out[ket] = out.get(ket, 0j) + amp

    for ket, amp in state.items():
        labels = ket.labels
        sigma_count = sum(1 for lab in labels if lab == SIGMA)
        if sigma_count == 3:
            if ket.tag is None:
                put(BasisKet(labels, VAC), amp * phase_from_eighths(kappa_shift + 2 * r1) * INV_SQRT2)
                put(BasisKet(labels, EPS), amp * phase_from_eighths(kappa_shift + r1 + reps) * INV_SQRT2)
            else:
                rtag = r1 if ket.tag == VAC else reps
                put(BasisKet(labels, ket.tag), amp * phase_from_eighths(kappa_shift + r1 + rtag))
            continue
        pairs = ((labels[0], labels[1]), (labels[0], labels[2]), (labels[1], labels[2]))
        plain = [pair for pair in pairs if pair != (SIGMA, SIGMA)]
        angle = 0
        for a, b in plain:
            angle += r_angle(model, a, b, fuse(model, a, b)[0])
        if sigma_count < 2:
            put(BasisKet(labels, ket.tag), amp * phase_from_eighths(angle))
        elif ket.tag is not None:
            rtag = r1 if ket.tag == VAC else reps
            put(BasisKet(labels, ket.tag), amp * phase_from_eighths(angle + rtag))
        else:
            put(BasisKet(labels, VAC), amp * phase_from_eighths(angle + r1) * INV_SQRT2)
            put(BasisKet(labels, EPS), amp * phase_from_eighths(angle + reps) * INV_SQRT2)
    return StateVector(out)


def reference_op(model, state, op):
    if op.kind == EXCHANGE:
        return reference_exchange(model, state, op.x, op.y, op.mode)
    if op.kind == CIRCLE:
        return reference_circle(model, state, op.x, op.y)
    return reference_tripartite_braid(model, state)


def reference_ops(model, state, ops):
    for op in ops:
        state = reference_op(model, state, op)
    return state
