import math

import numpy as np
import pytest
from hypothesis import given, settings

from anyonmask import masker, trials
from anyonmask.latin import (
    SchemeTriple,
    constant_column_square,
    cyclic_square,
    cyclic_triple,
    parse_triple,
    triple_to_text,
)
from anyonmask.masker import (
    BUILTIN_TRIPLES,
    MaskingScheme,
    bipartite_control,
    bipartite_encode,
    default_triple_name,
    encode,
    encoder_rows,
    random_unit_coeffs,
    run_masking_campaign,
    verify_masking,
)
from anyonmask.qstate import BasisKet, StateVector, inner, norm, partial_trace, product_basis
from helpers import (
    ROWS_D3,
    ROWS_D4,
    dense_inner,
    dense_partial_trace,
    dense_vector,
    max_amplitude_diff,
    reference_bipartite_encode,
    reference_encode,
    reference_encode_row,
    unit_coeffs,
)
from test_refusals import ABELIAN, ABELIAN_SCHEME, ISING, ISING_SCHEME, refusals, refuse, whole


def display_state(rows, coeffs):
    """Build the encoded state straight from the frozen cell patterns."""
    d = len(rows)
    amps = {}
    for j, row in enumerate(rows):
        for labels in row:
            amps[BasisKet(labels)] = coeffs[j] / math.sqrt(d)
    return StateVector(amps)


SCHEME_NAMES = ["abelian", "ising", "file"]


def scheme_named(name, abelian_scheme, ising_scheme):
    if name == "file":
        # B and C swapped: a valid triple that no built-in scheme uses
        model, base = ising_scheme.model, cyclic_triple(3)
        text = triple_to_text(SchemeTriple(a=base.a, b=base.c, c=base.b), model.alphabet)
        return MaskingScheme(model=model, triple=parse_triple(text, model.alphabet))
    return abelian_scheme if name == "abelian" else ising_scheme


class TestEncodeBasis:
    """The encoder on the basis inputs np.eye(d)[j]: the d encoder rows."""

    def test_abelian_row_zero(self, abelian_scheme):
        state = encode(abelian_scheme, np.eye(4)[0])
        expected = {
            BasisKet(("1", "1", "1")): 0.5,
            BasisKet(("e", "e", "e")): 0.5,
            BasisKet(("m", "m", "m")): 0.5,
            BasisKet(("eps", "eps", "eps")): 0.5,
        }
        assert state.amplitudes == expected

    def test_ising_row_zero(self, ising_scheme):
        state = encode(ising_scheme, np.eye(3)[0])
        amp = 1 / math.sqrt(3)
        assert set(state.amplitudes) == {
            BasisKet(("1", "1", "1")),
            BasisKet(("eps", "eps", "eps")),
            BasisKet(("sigma", "sigma", "sigma")),
        }
        for value in state.amplitudes.values():
            assert value == pytest.approx(amp, abs=1e-15)

    @pytest.mark.parametrize("scheme_name", ["abelian", "ising"])
    def test_rows_match_frozen_patterns(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if scheme_name == "abelian" else ising_scheme
        rows = ROWS_D4 if scheme_name == "abelian" else ROWS_D3
        for basis, row in zip(np.eye(scheme.d), rows):
            state = encode(scheme, basis)
            assert set(state.amplitudes) == {BasisKet(labels) for labels in row}

    @pytest.mark.parametrize("scheme_name", ["abelian", "ising"])
    def test_rows_are_orthonormal(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if scheme_name == "abelian" else ising_scheme
        rows = [encode(scheme, basis) for basis in np.eye(scheme.d)]
        for i, row_i in enumerate(rows):
            for j, row_j in enumerate(rows):
                expected = 1.0 if i == j else 0.0
                assert inner(row_i, row_j) == pytest.approx(expected, abs=1e-12)
                # independent dense-vector oracle
                assert dense_inner(row_i, row_j, scheme.model.alphabet) == pytest.approx(
                    expected, abs=1e-12
                )

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_dense_rows_are_the_encode_basis_rows(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = scheme_named(scheme_name, abelian_scheme, ising_scheme)
        d, alphabet = scheme.d, scheme.model.alphabet
        rows = encoder_rows(scheme)
        assert rows.shape == (d, d, d, d, 3)
        for j in range(d):
            want = reference_encode_row(scheme, j)
            assert np.array_equal(rows[j], dense_vector(want, alphabet))
            assert encode(scheme, np.eye(d)[j]) == want


class TestEncode:
    def test_matches_displayed_sixteen_term_state(self, abelian_scheme):
        rng = np.random.default_rng(17)
        coeffs = random_unit_coeffs(4, rng)
        state = encode(abelian_scheme, coeffs)
        expected = display_state(ROWS_D4, coeffs)
        assert set(state.amplitudes) == set(expected.amplitudes)
        for ket, amp in expected.items():
            assert state.amplitude(ket) == pytest.approx(amp, abs=1e-15)

    def test_matches_displayed_ising_state(self, ising_scheme):
        rng = np.random.default_rng(18)
        coeffs = random_unit_coeffs(3, rng)
        state = encode(ising_scheme, coeffs)
        expected = display_state(ROWS_D3, coeffs)
        assert set(state.amplitudes) == set(expected.amplitudes)
        for ket, amp in expected.items():
            assert state.amplitude(ket) == pytest.approx(amp, abs=1e-15)

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_equals_the_dict_loops(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = scheme_named(scheme_name, abelian_scheme, ising_scheme)
        triple, alphabet = scheme.triple, scheme.model.alphabet
        rng = np.random.default_rng(23)
        for _ in range(50):
            coeffs = random_unit_coeffs(scheme.d, rng)
            assert encode(scheme, coeffs) == reference_encode(scheme, coeffs)
            assert bipartite_encode(triple, alphabet, coeffs) == reference_bipartite_encode(triple, alphabet, coeffs)

    @pytest.mark.parametrize("square", [cyclic_square(3), constant_column_square(3)], ids=["across-rows", "in-a-row"])
    def test_bipartite_cells_that_collide_add_up(self, square, ising_scheme):
        # B = C: every label pair (x, x) sits in d cells
        triple = SchemeTriple(a=square, b=square, c=square)
        alphabet = ising_scheme.model.alphabet
        rng = np.random.default_rng(29)
        for _ in range(20):
            coeffs = random_unit_coeffs(3, rng)
            got = bipartite_encode(triple, alphabet, coeffs)
            want = reference_bipartite_encode(triple, alphabet, coeffs)
            assert set(got.amplitudes) == set(want.amplitudes)
            assert max_amplitude_diff(got, want) <= 1e-15

    def test_basis_vector_reduces_to_encode_basis(self, ising_scheme):
        state = encode(ising_scheme, [1.0, 0.0, 0.0])
        assert state.amplitudes == reference_encode_row(ising_scheme, 0).amplitudes

    def test_unit_norm_output(self, abelian_scheme):
        rng = np.random.default_rng(19)
        for _ in range(20):
            state = encode(abelian_scheme, random_unit_coeffs(4, rng))
            assert abs(norm(state) - 1.0) <= 1e-12

    @pytest.mark.parametrize("scheme_name", ["abelian", "ising"])
    def test_isometry_on_seeded_pairs(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if scheme_name == "abelian" else ising_scheme
        rng = np.random.default_rng(101)
        for _ in range(100):
            x = random_unit_coeffs(scheme.d, rng)
            y = random_unit_coeffs(scheme.d, rng)
            lhs = inner(encode(scheme, x), encode(scheme, y))
            rhs = complex(np.vdot(x, y))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    test_wrong_length_rejected = refusals(refuse(ValueError, "coefficients", encode, ABELIAN_SCHEME, [1.0, 0.0, 0.0]))
    test_non_unit_norm_rejected = refusals(
        refuse(ValueError, "unit norm", encode, ABELIAN_SCHEME, [1.0, 1.0, 0.0, 0.0]))
    # a NaN once passed the norm check and encoded to an empty state
    test_non_finite_rejected = refusals(*(
        refuse(ValueError, "finite", encode, ABELIAN_SCHEME, [bad, 0.0, 0.0, 0.0], id=str(bad))
        for bad in [math.nan, math.inf, complex(0, math.nan)]
    ))
    test_bipartite_non_finite_rejected = refusals(
        refuse(ValueError, "finite", bipartite_encode, ABELIAN_SCHEME.triple, ABELIAN.alphabet, [math.nan, 0, 0, 0]))


class TestVerifyMasking:
    @pytest.mark.parametrize("scheme_name", ["abelian", "ising"])
    def test_random_inputs_mask(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if scheme_name == "abelian" else ising_scheme
        rng = np.random.default_rng(23)
        for _ in range(25):
            state = encode(scheme, random_unit_coeffs(scheme.d, rng))
            report = verify_masking(state, scheme.model.alphabet)
            assert report.verdict
            assert report.worst_deviation <= 1e-12

    @pytest.mark.parametrize("party", [0, 1, 2])
    def test_nan_deviation_fails_and_surfaces(self, monkeypatch, abelian_scheme, party):
        # max(0.0, nan) is 0.0: a NaN after the first party used to pass
        real = masker.hs_distance
        calls = iter(range(3))
        monkeypatch.setattr(
            masker, "hs_distance", lambda r1, r2: math.nan if next(calls) == party else real(r1, r2)
        )
        state = encode(abelian_scheme, [1.0, 0.0, 0.0, 0.0])
        report = verify_masking(state, abelian_scheme.model.alphabet)
        assert not report.verdict
        assert math.isnan(report.worst_deviation)

    @given(coeffs=unit_coeffs(3))
    @settings(max_examples=40, deadline=None)
    def test_ising_masks_any_unit_input(self, ising_scheme, coeffs):
        report = verify_masking(encode(ising_scheme, coeffs), ising_scheme.model.alphabet)
        assert report.verdict

    def test_unencoded_product_state_fails(self, abelian_scheme):
        state = StateVector({BasisKet(("1", "1", "1")): 1.0})
        report = verify_masking(state, abelian_scheme.model.alphabet)
        assert not report.verdict
        # marginal is a pure projector: hs distance to I/d is sqrt(1 - 1/d)
        expected = math.sqrt(1 - 1 / 4)
        for deviation in report.deviations:
            assert deviation == pytest.approx(expected, abs=1e-12)
        assert expected > 0.5

    def test_marginal_entries_match_dense_oracle(self, ising_scheme):
        rng = np.random.default_rng(29)
        state = encode(ising_scheme, random_unit_coeffs(3, rng))
        report = verify_masking(state, ising_scheme.model.alphabet)
        for party, rho in enumerate(report.marginals):
            np.testing.assert_allclose(
                rho.entries,
                dense_partial_trace(state, {party}, ising_scheme.model.alphabet),
                atol=1e-14,
            )

    def test_input_independent_marginals(self, abelian_scheme):
        rng = np.random.default_rng(31)
        first = encode(abelian_scheme, random_unit_coeffs(4, rng))
        second = encode(abelian_scheme, random_unit_coeffs(4, rng))
        basis = product_basis(abelian_scheme.model.alphabet, 1)
        for party in range(3):
            rho_a = partial_trace(first, {party}, basis)
            rho_b = partial_trace(second, {party}, basis)
            assert np.max(np.abs(rho_a.entries - rho_b.entries)) <= 2e-12

    test_register_count_checked = refusals(
        refuse(ValueError, "3 registers", verify_masking, StateVector({BasisKet(("1", "1")): 1.0}), ABELIAN.alphabet))
    # an encoded state against an alphabet that repeats "e" had verdict False
    test_an_alphabet_that_repeats_a_label_is_refused = refusals(
        refuse(ValueError, whole("alphabet repeats the label 'e'"),
               verify_masking, encode(ABELIAN_SCHEME, [1.0, 0.0, 0.0, 0.0]), ("1", "e", "m", "eps", "e")))


class TestSchemeVariants:
    def test_swapping_b_and_c_still_masks(self, ising_scheme):
        swapped = MaskingScheme(
            model=ising_scheme.model,
            triple=SchemeTriple(
                a=ising_scheme.triple.a, b=ising_scheme.triple.c, c=ising_scheme.triple.b
            ),
        )
        rng = np.random.default_rng(37)
        for _ in range(10):
            report = verify_masking(
                encode(swapped, random_unit_coeffs(3, rng)), swapped.model.alphabet
            )
            assert report.verdict

    def test_constant_column_a_does_not_mask_first_party(self, ising_scheme):
        scheme = MaskingScheme(
            model=ising_scheme.model,
            triple=SchemeTriple(
                a=constant_column_square(3),
                b=cyclic_square(3, "forward"),
                c=cyclic_square(3, "backward"),
            ),
        )
        report = verify_masking(encode(scheme, [1.0, 0.0, 0.0]), scheme.model.alphabet)
        # the constant-column form pins party 0 to the input row label
        assert report.deviations[0] > 0.5
        assert report.deviations[1] <= 1e-12
        assert report.deviations[2] <= 1e-12

    test_order_mismatch_rejected = refusals(
        refuse(ValueError, "alphabet size", MaskingScheme, model=ISING, triple=ABELIAN_SCHEME.triple))
    test_invalid_triple_rejected = refusals(refuse(
        ValueError, "invalid scheme triple", MaskingScheme, model=ISING,
        triple=SchemeTriple(a=ISING_SCHEME.triple.a, b=cyclic_square(3, "forward"), c=cyclic_square(3, "forward"))))


class TestCampaign:
    @pytest.mark.parametrize("scheme_name", ["abelian", "ising"])
    def test_seeded_campaign_passes(self, scheme_name, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if scheme_name == "abelian" else ising_scheme
        result = run_masking_campaign(scheme, trials=200, seed=42)
        assert result.verdict
        assert result.failed_trials == 0
        assert result.worst_deviation <= 1e-12

    def test_campaign_is_deterministic(self, ising_scheme):
        a = run_masking_campaign(ising_scheme, trials=50, seed=9)
        b = run_masking_campaign(ising_scheme, trials=50, seed=9)
        assert a == b

    def test_nan_deviation_fails_and_surfaces(self, monkeypatch, abelian_scheme):
        # max(worst, nan) kept the old worst, so the report hid the NaN;
        # the NaN goes into trial 2's party-1 deviation inside the batch
        real = trials._trial_chunks

        def nan_chunks(*args):
            for coeffs, deviations, defects in real(*args):
                deviations[2, 1] = math.nan
                yield coeffs, deviations, defects

        monkeypatch.setattr(trials, "_trial_chunks", nan_chunks)
        result = run_masking_campaign(abelian_scheme, trials=5, seed=1)
        assert not result.verdict
        assert result.failed_trials == 1
        assert math.isnan(result.worst_deviation)
        assert math.isnan(result.per_party_worst[1])
        assert not math.isnan(result.per_party_worst[0])

    test_trials_validated = refusals(refuse(ValueError, "trials", run_masking_campaign, ISING_SCHEME, trials=0, seed=1))


class TestBipartiteControl:
    def test_abelian_control_leaks(self, abelian_model):
        report = bipartite_control(abelian_model)
        assert report.max_distance > 0.1
        assert report.witness[0] != report.witness[1]

    def test_ising_control_leaks(self, ising_model):
        report = bipartite_control(ising_model)
        assert report.max_distance > 0.1

    def test_identical_inputs_have_zero_distance(self, abelian_model, abelian_scheme):
        alphabet = abelian_model.alphabet
        basis = product_basis(alphabet, 1)
        vec = np.ones(4, dtype=complex) / 2.0
        rho_a = partial_trace(bipartite_encode(abelian_scheme.triple, alphabet, vec), {0}, basis)
        rho_b = partial_trace(bipartite_encode(abelian_scheme.triple, alphabet, vec), {0}, basis)
        assert np.array_equal(rho_a.entries, rho_b.entries)

    def test_bipartite_marginal_against_dense_oracle(self, ising_model, ising_scheme):
        alphabet = ising_model.alphabet
        vec = np.ones(3, dtype=complex) / math.sqrt(3)
        state = bipartite_encode(ising_scheme.triple, alphabet, vec)
        rho = partial_trace(state, {0}, product_basis(alphabet, 1))
        np.testing.assert_allclose(
            rho.entries, dense_partial_trace(state, {0}, alphabet), atol=1e-14
        )

    def test_basis_inputs_alone_do_not_leak(self, abelian_model, abelian_scheme):
        # every basis input masks both parties; the leak needs superpositions
        alphabet = abelian_model.alphabet
        basis = product_basis(alphabet, 1)
        for j in range(4):
            vec = np.zeros(4, dtype=complex)
            vec[j] = 1.0
            state = bipartite_encode(abelian_scheme.triple, alphabet, vec)
            for party in (0, 1):
                rho = partial_trace(state, {party}, basis)
                np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)

    def test_default_triple_is_the_model_kinds_builtin(self, abelian_model, ising_model):
        assert default_triple_name(abelian_model) == "standard-d4"
        assert default_triple_name(ising_model) == "cyclic-d3"
        for model in (abelian_model, ising_model):
            named = BUILTIN_TRIPLES[default_triple_name(model)]()
            assert named.d == model.d
            assert bipartite_control(model) == bipartite_control(model, named)

    # the encoder used to fail on it as "expected 3 coefficients, got shape (4,)"
    test_a_triple_of_another_order_is_refused = refusals(
        refuse(ValueError, "triple order 3 does not match the abelian-c0 alphabet size 4",
               bipartite_control, ABELIAN, cyclic_triple(3)))
    test_an_invalid_triple_is_refused = refusals(
        refuse(ValueError, "invalid scheme triple: B-C-not-orthogonal",
               bipartite_control, ISING, SchemeTriple(a=cyclic_square(3), b=cyclic_square(3), c=cyclic_square(3))))
