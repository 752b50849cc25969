"""The batched trial path against the labeled per-trial path it replaces.

Masking campaigns and braid-invariance runs evaluate every seeded trial
through per-party reduced operators of the d (braided) encoder rows,
held as one dense array.  Each test here redoes the same trials one at a
time with ``encode``, the reference braid ops of ``helpers`` and
``verify_masking`` and requires the same coefficients, verdicts and
failure counts, and values within ``ATOL``.
"""

import math
import re

import numpy as np
import pytest

from anyonmask import braid, trials
from anyonmask.braid import parse_ops, verify_invariance
from anyonmask.latin import SchemeTriple, constant_column_square
from anyonmask.masker import (
    DEFAULT_TOL,
    MaskingScheme,
    encode,
    encoder_rows,
    random_unit_coeffs,
    run_masking_campaign,
    verify_masking,
)
from anyonmask.qstate import BasisKet, StateVector, basis_state, norm
from anyonmask.trials import (
    TRIAL_CHUNK,
    _reduced_operators,
    _trial_chunks,
    evaluate_trials,
    random_unit_coeff_block,
)
from helpers import (
    REFERENCE_CHUNK,
    TAG_ORDER,
    dense_vector,
    labeled_campaign,
    reference_evaluate_trials,
    reference_ops,
    reference_trial_chunks,
)

ATOL = 1e-14

SEQUENCES = {
    "abelian": ("xAB", "cAC;xBC", "xAB;xBC;cBA"),
    # xAB and xBC split untagged sigma pairs; t3 splits the all-sigma term
    "ising": ("xAB", "t3", "t3;xBC", "xAB;t3;cAC", "xBC;xBC;cAB"),
}


def sequential_draws(d, trials, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_unit_coeffs(d, rng) for _ in range(trials)])


def combine(rows, coeffs):
    out: dict = {}
    for c, row in zip(coeffs, rows):
        for ket, amp in row.items():
            out[ket] = out.get(ket, 0j) + c * amp
    return StateVector(out)


def dense_rows(states, alphabet):
    """Labeled rows as the dense (n, d, d, d, 3) array the batch takes."""
    return np.stack([dense_vector(state, alphabet) for state in states])


def batched(rows, trials, seed, chunks=_trial_chunks):
    parts = list(chunks(rows, trials, seed))
    return tuple(np.concatenate([part[i] for part in parts]) for i in range(3))


def reference_chunks(rows, trials, seed):
    """``reference_trial_chunks``, but a trial alone in the reference's last
    chunk takes its values from a run one trial longer: the reference
    multiplies it as a vector, the kernel as a matrix, like every other trial."""
    if trials % REFERENCE_CHUNK != 1:
        yield from reference_trial_chunks(rows, trials, seed)
        return
    start = 0
    for chunk in reference_trial_chunks(rows, trials + 1, seed):
        yield tuple(part[: trials - start] for part in chunk)
        start += len(chunk[0])


def scheme_for(kind, abelian_scheme, ising_scheme):
    return abelian_scheme if kind == "abelian" else ising_scheme


def pinned_first_party(scheme):
    """The scheme with a constant-row A: party 0 holds the input row label, so it leaks."""
    triple = SchemeTriple(a=constant_column_square(scheme.d), b=scheme.triple.b, c=scheme.triple.c)
    return MaskingScheme(model=scheme.model, triple=triple)


class TestCoefficientBlock:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", [0, 7, 20240, 40_123])
    def test_block_equals_sequential_draws(self, d, seed):
        block = random_unit_coeff_block(d, 500, np.random.default_rng(seed))
        assert np.array_equal(block, sequential_draws(d, 500, seed))

    @pytest.mark.parametrize("d", [3, 4])
    def test_chunked_trials_equal_sequential_draws(self, d, ising_scheme, abelian_scheme):
        scheme = ising_scheme if d == 3 else abelian_scheme
        trials = TRIAL_CHUNK + 37
        coeffs, _, _ = batched(encoder_rows(scheme), trials, 11)
        assert np.array_equal(coeffs, sequential_draws(d, trials, 11))

    # the chunk edges of the kernel and of the reference's first two chunks
    @pytest.mark.parametrize(
        "trial",
        [0, 1, 99, REFERENCE_CHUNK - 1, REFERENCE_CHUNK, REFERENCE_CHUNK + 5]
        + [2 * REFERENCE_CHUNK - 1, 2 * REFERENCE_CHUNK, 2 * REFERENCE_CHUNK + 5]
        + [TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 5],
    )
    def test_replay_coeffs_is_the_sequential_draw(self, trial, monkeypatch, abelian_scheme):
        real = trials._trial_chunks

        def one_bad_trial(*args):
            start = 0
            for coeffs, deviations, defects in real(*args):
                deviations = np.zeros_like(deviations)
                if start <= trial < start + len(deviations):
                    deviations[trial - start, 1] = 1.0
                start += len(deviations)
                yield coeffs, deviations, defects

        monkeypatch.setattr(trials, "_trial_chunks", one_bad_trial)
        batch = evaluate_trials(encoder_rows(abelian_scheme), TRIAL_CHUNK + 6, 3, 0.5)
        assert batch.worst_trial == trial
        assert batch.worst_coeffs == tuple(sequential_draws(4, TRIAL_CHUNK + 6, 3)[trial])

    def test_a_block_off_the_sequential_draw_is_refused(self, monkeypatch, ising_scheme):
        real = trials.random_unit_coeff_block
        monkeypatch.setattr(
            trials, "random_unit_coeff_block", lambda *args: real(*args) * (1 + 2**-52)
        )
        with pytest.raises(RuntimeError, match="seed 4: the block draw of trial 0 is not the per-trial draw"):
            evaluate_trials(encoder_rows(ising_scheme), 10, 4, 1e-12)

    def test_block_rejects_non_finite_draws(self):
        class NanNormal:
            def standard_normal(self, size):
                return np.full(size, np.nan)

        with pytest.raises(ValueError, match="not finite and nonzero"):
            random_unit_coeff_block(3, 4, NanNormal())


class TestBitIdentity:
    """The kernel against the chunk arithmetic it replaced (``helpers``), with no tolerance.

    Only the number of floating-point passes changed, never an operation or
    its order, so every aggregate and every per-trial value is equal.  The
    one exception is a trial alone in the reference's last chunk, which the
    kernel multiplies as a matrix (``reference_chunks``).
    """

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    # the kernel's chunk edges and the reference's after two chunks, where
    # 2 * REFERENCE_CHUNK + 1 leaves it a lone trial
    @pytest.mark.parametrize(
        "count",
        [1, 2 * REFERENCE_CHUNK - 1, 2 * REFERENCE_CHUNK, 2 * REFERENCE_CHUNK + 1]
        + [TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 1, 1000],
    )
    def test_encoder_rows(self, kind, count, abelian_scheme, ising_scheme):
        rows = encoder_rows(scheme_for(kind, abelian_scheme, ising_scheme))
        for seed in (0, 7, 20240, 20241):
            assert evaluate_trials(rows, count, seed, DEFAULT_TOL) == reference_evaluate_trials(
                rows, count, seed, DEFAULT_TOL, reference_chunks
            )
            for got, want in zip(batched(rows, count, seed), batched(rows, count, seed, reference_chunks)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", ["t3", "xAB;cBC;t3", "cAC"])
    def test_braided_tagged_rows(self, text, ising_scheme):
        rows = braid._braided_rows(ising_scheme, parse_ops(text))
        assert rows.shape[-1] == len(TAG_ORDER)
        for seed, count in ((0, 100), (7, TRIAL_CHUNK + 1), (20241, 1000)):
            assert evaluate_trials(rows, count, seed, 2e-12) == reference_evaluate_trials(
                rows, count, seed, 2e-12, reference_chunks
            )
            for got, want in zip(batched(rows, count, seed), batched(rows, count, seed, reference_chunks)):
                assert got.tobytes() == want.tobytes()

    def test_only_a_trial_alone_in_a_reference_chunk_may_differ(self, ising_scheme):
        # numpy multiplies a one-trial chunk as a vector (BLAS gemv), which may
        # round apart from the matrix product of a longer chunk; with chunks
        # longer than the reference's, its lone last trial of 129 has company
        rows = braid._braided_rows(ising_scheme, parse_ops("xAB;cBC;t3"))
        count = REFERENCE_CHUNK + 1
        for seed in range(8):
            for got, want in zip(batched(rows, count, seed), batched(rows, count, seed, reference_trial_chunks)):
                assert got[:REFERENCE_CHUNK].tobytes() == want[:REFERENCE_CHUNK].tobytes()


class TestTrialCountIndependence:
    """A seeded trial's values do not depend on how many trials follow it."""

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_last_trial_alone_in_its_chunk(self, kind, abelian_scheme, ising_scheme):
        # numpy multiplies a one-row chunk as a vector (BLAS gemv), which may
        # round apart from the matrix product of a longer chunk
        scheme = scheme_for(kind, abelian_scheme, ising_scheme)
        braids = [braid._braided_rows(scheme, parse_ops(text)) for text in SEQUENCES[kind][1:3]]
        for braided in [encoder_rows(scheme)] + braids:
            for seed in range(50):
                for t in (0, TRIAL_CHUNK):
                    alone = batched(braided, t + 1, seed)
                    company = batched(braided, t + 2, seed)
                    for got, want in zip(alone, company):
                        assert got[t].tobytes() == want[t].tobytes(), (seed, t)


class TestAgainstLabeledTrials:
    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_per_trial_values_match(self, kind, abelian_scheme, ising_scheme):
        scheme = scheme_for(kind, abelian_scheme, ising_scheme)
        model, alphabet = scheme.model, scheme.model.alphabet
        rows = [encode(scheme, basis) for basis in np.eye(scheme.d)]
        for seed, text in enumerate(SEQUENCES[kind]):
            ops = parse_ops(text)
            braided = dense_rows([reference_ops(model, row, ops) for row in rows], alphabet)
            coeffs, deviations, defects = batched(braided, 60, seed)
            assert np.array_equal(coeffs, sequential_draws(scheme.d, 60, seed))
            for t, c in enumerate(coeffs):
                pre = encode(scheme, c)
                post = reference_ops(model, pre, ops)
                report = verify_masking(post, alphabet, tol=2e-12)
                np.testing.assert_allclose(deviations[t], report.deviations, rtol=0, atol=ATOL)
                assert abs(defects[t] - abs(norm(post) - norm(pre))) <= ATOL

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_verdicts_match(self, kind, abelian_scheme, ising_scheme):
        scheme = scheme_for(kind, abelian_scheme, ising_scheme)
        for seed, text in enumerate(SEQUENCES[kind]):
            ops = parse_ops(text)
            report = verify_invariance(scheme, ops, trials=40, tol=2e-12, seed=seed)
            rng = np.random.default_rng(seed)
            labeled = [
                verify_masking(
                    reference_ops(scheme.model, encode(scheme, random_unit_coeffs(scheme.d, rng)), ops),
                    scheme.model.alphabet,
                    tol=2e-12,
                )
                for _ in range(40)
            ]
            assert report.verdict == all(r.verdict for r in labeled)
            worst = max(r.worst_deviation for r in labeled)
            assert abs(report.worst_deviation - worst) <= ATOL


def test_reduced_operators_against_dense_oracle():
    # rows sharing kets and tags, so every cross term K_p[j, j'] is nonzero;
    # masking rows have zero cross terms and would not check them
    alphabet = ("1", "eps", "sigma")
    rng = np.random.default_rng(5)
    kets = [
        BasisKet(tuple(alphabet[i] for i in rng.integers(0, 3, size=3)), TAG_ORDER[rng.integers(0, 3)])
        for _ in range(8)
    ]
    rows = [
        StateVector({ket: complex(*rng.standard_normal(2)) for ket in kets[j : j + 5]})
        for j in range(3)
    ]
    k = _reduced_operators(dense_rows(rows, alphabet)).reshape(3, 3, 3, 3, 3)
    for party in range(3):
        flat = [
            np.moveaxis(dense_vector(row, alphabet), party, 0).reshape(3, -1) for row in rows
        ]
        for j in range(3):
            for jj in range(3):
                expected = flat[j] @ flat[jj].conj().T
                assert np.abs(expected).max() > 1e-3
                np.testing.assert_allclose(k[j, jj, party], expected, rtol=0, atol=ATOL)


@pytest.mark.parametrize(
    "row, problem",
    [
        (np.zeros((2, 3, 3, 4, 3), dtype=complex), "label outside"),  # a fourth label
        (np.zeros((2, 3, 3, 3), dtype=complex), "has 2 registers"),
    ],
)
def test_reduced_operators_reject_foreign_rows(row, problem):
    shape = re.escape(str(row.shape))
    with pytest.raises(ValueError, match=r"rows must have shape \(n, d, d, d, tags\), got " + shape + ".*" + problem):
        _reduced_operators(row)


class TestNonMaskingRows:
    """Rows |j j j> leak every input, so both paths must see large deviations."""

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_product_rows_fail_alike(self, kind, abelian_model, ising_model):
        model = abelian_model if kind == "abelian" else ising_model
        alphabet = model.alphabet
        rows = [basis_state((label,) * 3) for label in alphabet]
        coeffs, deviations, _ = batched(dense_rows(rows, alphabet), 80, 13)
        labeled = np.array(
            [verify_masking(combine(rows, c), alphabet).deviations for c in coeffs]
        )
        assert labeled.min() > 0.05
        np.testing.assert_allclose(deviations, labeled, rtol=0, atol=ATOL)

        # a threshold between two labeled values splits the trials the same way
        worst = np.sort(labeled.max(axis=1))
        tol = (worst[39] + worst[40]) / 2
        batch = evaluate_trials(dense_rows(rows, alphabet), 80, 13, tol)
        assert batch.failed_trials == sum(not (row <= tol).all() for row in labeled) == 40
        assert batch.worst_trial == int(np.argmax(labeled.max(axis=1)))
        assert batch.worst_coeffs == tuple(coeffs[batch.worst_trial])

    def test_scaled_rows_show_the_norm_defect(self, ising_scheme):
        alphabet = ising_scheme.model.alphabet
        rows = [encode(ising_scheme, basis) for basis in np.eye(3)]
        grown = [StateVector({ket: 2.0 * amp for ket, amp in row.items()}) for row in rows]
        coeffs, _, defects = batched(dense_rows(grown, alphabet), 30, 17)
        labeled = [abs(norm(combine(grown, c)) - norm(combine(rows, c))) for c in coeffs]
        np.testing.assert_allclose(defects, labeled, rtol=0, atol=ATOL)
        assert min(labeled) > 0.9
        assert not evaluate_trials(dense_rows(grown, alphabet), 30, 17, 1.0).norm_defect <= 0.9


class TestCampaignAgainstLabeledLoop:
    """``run_masking_campaign`` against the per-trial loop in ``helpers``."""

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    @pytest.mark.parametrize(
        "count",
        [1, REFERENCE_CHUNK - 1, REFERENCE_CHUNK, REFERENCE_CHUNK + 1]
        + [2 * REFERENCE_CHUNK - 1, 2 * REFERENCE_CHUNK, 2 * REFERENCE_CHUNK + 1]
        + [TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1, 1000],
    )
    def test_same_results(self, kind, count, abelian_scheme, ising_scheme):
        scheme = scheme_for(kind, abelian_scheme, ising_scheme)
        for seed in (0, 7, 40_123):
            batched = run_masking_campaign(scheme, count, seed)
            labeled = labeled_campaign(scheme, count, seed, DEFAULT_TOL)
            assert batched.verdict == labeled.verdict
            assert batched.failed_trials == labeled.failed_trials == 0
            np.testing.assert_allclose(
                batched.per_party_worst, labeled.per_party_worst, rtol=0, atol=ATOL
            )

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_non_masking_scheme_fails_alike(self, kind, abelian_scheme, ising_scheme):
        scheme = pinned_first_party(scheme_for(kind, abelian_scheme, ising_scheme))
        batched = run_masking_campaign(scheme, 150, 3)
        labeled = labeled_campaign(scheme, 150, 3, DEFAULT_TOL)
        assert not batched.verdict and not labeled.verdict
        assert batched.failed_trials == labeled.failed_trials == 150
        np.testing.assert_allclose(batched.per_party_worst, labeled.per_party_worst, rtol=0, atol=ATOL)
        assert batched.per_party_worst[0] > 0.3
        assert max(batched.per_party_worst[1:]) <= DEFAULT_TOL

    def test_replay_fails_a_kernel_that_sees_nothing(self, monkeypatch, ising_scheme):
        def zero_chunks(rows, count, seed):
            coeffs = random_unit_coeff_block(len(rows), count, np.random.default_rng(seed))
            yield coeffs, np.zeros((count, 3)), np.zeros(count)

        monkeypatch.setattr(trials, "_trial_chunks", zero_chunks)
        result = run_masking_campaign(pinned_first_party(ising_scheme), 50, 3)
        assert result.failed_trials == 0 and result.worst_deviation == 0.0
        assert not result.verdict  # the labeled replay of trial 0 leaks party 0


def test_braid_replay_fails_a_kernel_that_sees_nothing(monkeypatch, ising_scheme):
    real = trials._trial_chunks

    def zero_chunks(*args):
        for coeffs, deviations, defects in real(*args):
            yield coeffs, np.zeros_like(deviations), np.zeros_like(defects)

    def product_rows(scheme, ops):
        # every braided row the product |1,1,1>, which each party sees
        return np.stack([dense_vector(basis_state(("1", "1", "1")), scheme.model.alphabet)] * scheme.d)

    monkeypatch.setattr(trials, "_trial_chunks", zero_chunks)
    monkeypatch.setattr(braid, "_braided_rows", product_rows)
    report = verify_invariance(ising_scheme, parse_ops("xAB"), trials=20, seed=2)
    assert report.worst_deviation == 0.0 and report.unitarity_defect == 0.0
    assert report.pre_report.verdict and not report.post_report.verdict
    assert not report.verdict  # only the post-braid replay sees the leak


@pytest.mark.parametrize("kind", ["abelian", "ising"])
@pytest.mark.parametrize("masking", [True, False], ids=["masking", "pinned"])
def test_braid_replay_equals_braiding_the_encoded_trial(kind, masking, abelian_scheme, ising_scheme):
    # the post-braid replay combines the braided rows; braiding the encoded
    # worst trial through apply_ops must give the same report
    scheme = scheme_for(kind, abelian_scheme, ising_scheme)
    scheme = scheme if masking else pinned_first_party(scheme)
    alphabet = scheme.model.alphabet
    for text in SEQUENCES[kind]:
        ops = parse_ops(text)
        report = verify_invariance(scheme, ops, trials=40, seed=11)
        worst = evaluate_trials(braid._braided_rows(scheme, ops), 40, 11, report.tol).worst_coeffs
        braided = braid.apply_ops(scheme.model, encode(scheme, worst), ops)
        labeled = verify_masking(braided, alphabet, tol=report.tol)
        assert report.post_report.verdict == labeled.verdict == masking, text
        np.testing.assert_allclose(report.post_report.deviations, labeled.deviations, rtol=0, atol=1e-15)


class TestNanSurfaces:
    """A NaN deviation fails the verdict and is reported as NaN."""

    def test_braid_invariance(self, monkeypatch, ising_scheme):
        real = trials._reduced_operators
        monkeypatch.setattr(trials, "_reduced_operators", lambda *args: real(*args) * np.nan)
        report = verify_invariance(ising_scheme, parse_ops("t3"), trials=20, seed=1)
        assert not report.verdict
        assert math.isnan(report.worst_deviation)
        assert math.isnan(report.record()["worst_deviation"])

    def test_reduction_across_chunks(self, monkeypatch, ising_scheme):
        chunks = [
            [[0.1, 0.0, 0.0], [0.5, 0.0, 0.0]],
            [[0.5, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.9, 0.0, np.nan]],
        ]

        def fake_chunks(*args):
            start = 0
            for deviations in chunks:
                coeffs = np.arange(start, start + len(deviations))[:, None] * np.ones(3) + 0j
                start += len(deviations)
                yield coeffs, np.array(deviations), np.zeros(len(deviations))

        monkeypatch.setattr(trials, "_trial_chunks", fake_chunks)
        batch = evaluate_trials([], 5, 0, 1.0)
        assert batch.worst_trial == 3  # the first NaN beats every number
        assert batch.worst_coeffs == (3, 3, 3)
        assert batch.failed_trials == 2
        assert math.isnan(batch.per_party_worst[0]) and math.isnan(batch.per_party_worst[2])
        assert batch.per_party_worst[1] == 0.0

        chunks[1][1:] = []  # ties keep the earliest trial
        batch = evaluate_trials([], 3, 0, 1.0)
        assert batch.worst_trial == 1 and batch.worst_coeffs == (1, 1, 1)

    def test_norm_defect_across_chunks(self, monkeypatch, ising_scheme):
        real = trials._trial_chunks

        def nan_in_second_chunk(*args):
            for index, (coeffs, deviations, defects) in enumerate(real(*args)):
                if index == 1:
                    defects = defects.copy()
                    defects[3] = np.nan
                yield coeffs, deviations, defects

        monkeypatch.setattr(trials, "_trial_chunks", nan_in_second_chunk)
        count = 2 * TRIAL_CHUNK + 10  # a NaN-free chunk follows the NaN
        batch = evaluate_trials(encoder_rows(ising_scheme), count, 1, DEFAULT_TOL)
        assert math.isnan(batch.norm_defect)
        assert batch.failed_trials == 0 and batch.worst_deviation <= DEFAULT_TOL
        report = verify_invariance(ising_scheme, parse_ops("t3"), trials=count, seed=1)
        assert math.isnan(report.unitarity_defect) and math.isnan(report.record()["unitarity_defect"])
        assert not report.verdict
