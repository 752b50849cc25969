import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonmask.latin import cyclic_triple
from anyonmask.masker import bipartite_encode, encode
from anyonmask.qstate import (
    BasisKet,
    DensityMatrix,
    StateVector,
    basis_state,
    dense_state,
    finite_coeffs,
    hs_distance,
    inner,
    norm,
    partial_trace,
    product_basis,
    tagged_basis,
    tensor,
    unit_coeffs,
)
from anyonmask.teleport import payload_state, run_teleport
from helpers import ROWS_D4, dense_partial_trace, dense_vector, max_amplitude_diff, reference_partial_trace
from test_refusals import ISING_SCHEME, refusals, refuse, whole

ABELIAN = ("1", "e", "m", "eps")
ISING = ("1", "eps", "sigma")


def encoded_d4(coeffs) -> StateVector:
    amps = {}
    for j, row in enumerate(ROWS_D4):
        for labels in row:
            amps[BasisKet(labels)] = coeffs[j] / 2.0
    return StateVector(amps)


@st.composite
def small_states(draw, n_min=1, n_max=3):
    n = draw(st.integers(n_min, n_max))
    n_terms = draw(st.integers(1, 6))
    amps = {}
    finite = st.floats(-2, 2, allow_nan=False)
    for _ in range(n_terms):
        labels = tuple(draw(st.sampled_from(ABELIAN)) for _ in range(n))
        tag = draw(st.sampled_from([None, "1", "eps"]))
        amps[BasisKet(labels, tag)] = complex(draw(finite), draw(finite))
    return StateVector(amps)


class TestTensor:
    def test_basis_product(self):
        out = tensor(basis_state(["e"]), basis_state(["m"]))
        assert out.amplitudes == {BasisKet(("e", "m")): 1.0 + 0j}

    def test_linearity(self):
        left = StateVector({BasisKet(("1",)): 0.6, BasisKet(("eps",)): 0.8j})
        out = tensor(left, basis_state(["sigma"]))
        assert out.amplitude(BasisKet(("1", "sigma"))) == 0.6
        assert out.amplitude(BasisKet(("eps", "sigma"))) == 0.8j

    def test_four_term_norm_by_direct_summation(self):
        half = StateVector({BasisKet(("1",)): 1 / math.sqrt(2), BasisKet(("eps",)): 1 / math.sqrt(2)})
        out = tensor(half, half)
        assert len(out) == 4
        # oracle: explicit sum of the four squared magnitudes
        expected = math.sqrt(sum(abs(a) ** 2 for a in out.amplitudes.values()))
        assert expected == pytest.approx(1.0, abs=1e-12)
        assert norm(out) == pytest.approx(expected, abs=0)

    def test_single_tag_propagates(self):
        out = tensor(basis_state(["sigma"], tag="1"), basis_state(["sigma"]))
        assert list(out.amplitudes) == [BasisKet(("sigma", "sigma"), "1")]

    test_two_tagged_inputs_rejected = refusals(
        refuse(ValueError, "tag", tensor, basis_state(["sigma"], tag="eps"), basis_state(["sigma"], tag="eps")))


class TestInnerNormScale:
    def test_tag_orthogonality_is_exact(self):
        s1 = basis_state(["sigma", "sigma", "sigma"], tag="1")
        s2 = basis_state(["sigma", "sigma", "sigma"], tag="eps")
        assert inner(s1, s2) == 0

    @given(small_states(), small_states(n_min=1, n_max=3))
    @settings(max_examples=60, deadline=None)
    def test_inner_conjugate_symmetry(self, s1, s2):
        if s1.n_registers != s2.n_registers:
            return
        assert inner(s1, s2) == pytest.approx(inner(s2, s1).conjugate(), abs=1e-12)

    def test_inner_with_an_empty_state_is_zero(self):
        # the one pair of register counts that may differ; a sum started from the int 0 returned the int 0
        empty, ket = StateVector({}), basis_state(("1", "1"))
        for pair in ((empty, ket), (ket, empty), (empty, empty)):
            value = inner(*pair)
            assert type(value) is complex and value == 0

    @given(small_states())
    @settings(max_examples=60, deadline=None)
    def test_norm_is_sqrt_self_inner(self, s):
        assert norm(s) ** 2 == pytest.approx(inner(s, s).real, abs=1e-10)

    # 0 would pass for orthogonal states of one register count
    test_inner_of_two_register_counts_rejected = refusals(
        refuse(ValueError, "states of 1 and 2 registers", inner, basis_state(("1",)), basis_state(("1", "1"))),
        refuse(ValueError, "states of 2 and 1 registers", inner, basis_state(("1", "1")), basis_state(("1",))),
    )


class TestPartialTrace:
    def test_entangled_pair_marginal(self):
        bell = StateVector(
            {BasisKet(("1", "1")): 1 / math.sqrt(2), BasisKet(("e", "e")): 1 / math.sqrt(2)}
        )
        rho = partial_trace(bell, {0})
        assert rho.basis == (("1",), ("e",))
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_state_marginal_is_projector(self):
        chi = StateVector({BasisKet(("1",)): 0.6, BasisKet(("m",)): 0.8j})
        out = tensor(chi, basis_state(["eps"]))
        rho = partial_trace(out, {0})
        vec = np.array([0.6, 0.8j])
        np.testing.assert_allclose(rho.entries, np.outer(vec, vec.conj()), atol=1e-15)

    @pytest.mark.parametrize("party", [0, 1, 2])
    def test_encoded_state_single_party_marginals_are_maximally_mixed(self, party):
        coeffs = np.array([0.5, 0.5j, -0.5, 0.5]) * np.exp(0.3j)
        state = encoded_d4(coeffs)
        basis = product_basis(ABELIAN, 1)
        rho = partial_trace(state, {party}, basis)
        np.testing.assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-12)
        # independent dense oracle
        np.testing.assert_allclose(
            dense_partial_trace(state, {party}, ABELIAN), np.eye(4) / 4, atol=1e-12
        )

    @given(small_states())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_entrywise_loop_bit_for_bit(self, state):
        n = state.n_registers
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                for basis in (None, product_basis(ABELIAN, size)):
                    rho = partial_trace(state, keep, basis)
                    want_basis, want = reference_partial_trace(state, keep, basis)
                    assert rho.basis == want_basis
                    assert rho.entries.tobytes() == want.tobytes()

    @given(small_states())
    @settings(max_examples=60, deadline=None)
    def test_trace_preservation(self, state):
        for party in range(state.n_registers):
            rho = partial_trace(state, {party})
            assert rho.trace() == pytest.approx(norm(state) ** 2, abs=1e-10)

    @given(small_states())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, state):
        basis = product_basis(ABELIAN, 1)
        for party in range(state.n_registers):
            rho = partial_trace(state, {party}, basis)
            np.testing.assert_allclose(
                rho.entries, dense_partial_trace(state, {party}, ABELIAN), atol=1e-12
            )

    def test_keep_all_of_untagged_pure_state_gives_projector(self):
        state = StateVector(
            {BasisKet(("1", "e")): 0.6, BasisKet(("m", "eps")): 0.8}
        )
        rho = partial_trace(state, {0, 1})
        idx = {b: i for i, b in enumerate(rho.basis)}
        assert rho.entries[idx[("1", "e")], idx[("m", "eps")]] == pytest.approx(0.48)
        assert rho.trace() == pytest.approx(1.0)

    def test_tags_are_always_traced_out(self):
        state = StateVector(
            {
                BasisKet(("sigma",), "1"): 1 / math.sqrt(2),
                BasisKet(("sigma",), "eps"): 1 / math.sqrt(2),
            }
        )
        rho = partial_trace(state, {0})
        assert rho.basis == (("sigma",),)
        # the two tagged branches add incoherently
        np.testing.assert_allclose(rho.entries, [[1.0]], atol=1e-15)

    test_rejects_empty_keep = refusals(
        refuse(ValueError, "at least one", partial_trace, basis_state(["e", "m"]), set()))
    test_rejects_out_of_range = refusals(
        refuse(ValueError, "out of range", partial_trace, basis_state(["e", "m"]), {2}))
    # True ran as register 1; 1.5 and 1.0 failed with TypeError when slicing
    test_rejects_a_kept_index_that_is_no_integer = refusals(*(
        refuse(ValueError, f"^keep must be a non-negative integer, got {re.escape(repr(index))}$",
               partial_trace, basis_state(["e", "m", "1"]), [index], id=repr(index))
        for index in [True, 1.5, 1.0, -1]
    ))
    # a state with no kets has no registers, and it gave a zero matrix over the basis
    test_rejects_a_state_with_no_kets = refusals(*(
        refuse(ValueError, whole(f"keep indices [{index}] out of range for 0 registers"),
               partial_trace, StateVector({}), {index}, product_basis(ISING, 1))
        for index in (0, 9)
    ))
    test_rejects_basis_missing_support = refusals(
        refuse(ValueError, "missing", partial_trace, basis_state(["e", "m"]), {0}, basis=[("1",)]))
    # |e 1> and |m 1> share the traced label; only the first is in the basis
    test_rejects_basis_missing_a_later_ket_of_a_group = refusals(
        refuse(ValueError, r"\('m',\) missing from the supplied basis",
               partial_trace, StateVector({BasisKet(("e", "1")): 0.6, BasisKet(("m", "1")): 0.8}), {0}, basis=[("e",)]))
    # a repeated tuple gave a 2 x 2 matrix with a zero row
    test_rejects_a_basis_that_repeats_a_label_tuple = refusals(
        refuse(ValueError, whole("basis repeats the label tuple ('e',)"),
               partial_trace, basis_state(["e", "m"]), {0}, [("e",), ("e",)]))


class TestHsDistance:
    def test_identity_case(self):
        rho = DensityMatrix.maximally_mixed(product_basis(ABELIAN, 1))
        assert hs_distance(rho, rho) == 0.0

    def test_diagonal_case_against_entrywise_oracle(self):
        basis = product_basis(ABELIAN, 1)
        mixed = DensityMatrix.maximally_mixed(basis)
        pure = DensityMatrix(basis, np.diag([1.0, 0, 0, 0]).astype(complex))
        # oracle: direct entrywise sum of squared differences
        delta = mixed.entries - pure.entries
        expected = math.sqrt(sum(abs(x) ** 2 for x in delta.ravel()))
        assert expected == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        assert hs_distance(mixed, pure) == pytest.approx(expected, abs=0)

    def test_tiny_perturbation(self):
        basis = product_basis(("1", "eps", "sigma"), 1)
        mixed = DensityMatrix.maximally_mixed(basis)
        bumped = np.array(mixed.entries)
        bumped[0, 0] += 1e-13
        assert hs_distance(mixed, DensityMatrix(basis, bumped)) <= 2e-13

    test_basis_mismatch_rejected = refusals(
        refuse(ValueError, "bases", hs_distance, DensityMatrix.maximally_mixed(product_basis(ABELIAN, 1)),
               DensityMatrix.maximally_mixed(product_basis(ISING, 1))))


class TestDenseLayout:
    @given(small_states(n_min=1, n_max=4))
    @settings(max_examples=80, deadline=None)
    def test_dense_state_inverts_dense_vector(self, state):
        back = dense_state(dense_vector(state, ABELIAN), ABELIAN)
        assert back == state
        kets = tagged_basis(ABELIAN, state.n_registers)[0]
        assert list(back.amplitudes) == [ket for ket in kets if ket in state.amplitudes]

    test_foreign_shape_rejected = refusals(
        refuse(ValueError, r"shape \(3, 3, 3\) are not in the dense layout of 4 labels",
               dense_state, np.zeros((3, 3, 3), dtype=complex), ABELIAN))
    # product_basis(("a", "a"), 1) gave (("a",), ("a",)), and tagged_basis 6 kets but 3 index entries
    test_an_alphabet_that_repeats_a_label_is_refused = refusals(
        refuse(ValueError, whole("alphabet repeats the label 'a'"), product_basis, ("a", "a"), 1),
        refuse(ValueError, whole("alphabet repeats the label 'e'"), tagged_basis, ("1", "e", "m", "e"), 2))


class TestDensityMatrix:
    def test_marginal_passes_validation(self):
        state = encoded_d4(np.array([1.0, 0, 0, 0]))
        rho = partial_trace(state, {1}, product_basis(ABELIAN, 1)).entries
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_pair_marginal_checked_by_eigenvalues(self):
        state = encoded_d4(np.array([0.5, 0.5j, -0.5, 0.5]))
        rho = partial_trace(state, {0, 1}, product_basis(ABELIAN, 2)).entries
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho - 0.1 * np.eye(16))[0] < -1e-10

    test_entries_are_frozen = refusals(
        refuse(ValueError, None, operator.setitem, DensityMatrix.maximally_mixed(product_basis(ABELIAN, 1)).entries,
               (0, 0), 9.0))
    test_entries_of_another_shape_are_refused = refusals(
        refuse(ValueError, r"^entries shape \(3, 3\) does not match basis size 4$",
               DensityMatrix, product_basis(ABELIAN, 1), np.eye(3)))


class TestStateVector:
    def test_prunes_tiny_amplitudes(self):
        state = StateVector({BasisKet(("e",)): 1e-16, BasisKet(("m",)): 1.0})
        assert list(state.amplitudes) == [BasisKet(("m",))]

    @pytest.mark.parametrize("amp", [np.float32(0.5), np.int64(2), np.complex64(1j), np.float64(-1.0)], ids=repr)
    def test_a_numpy_number_is_an_amplitude(self, amp):
        assert StateVector({BasisKet(("e",)): amp}).amplitude(BasisKet(("e",))) == complex(amp)

    def test_max_amplitude_diff(self):
        s1 = basis_state(["e"])
        s2 = StateVector({BasisKet(("e",)): 1.0, BasisKet(("m",)): 1e-3})
        assert max_amplitude_diff(s1, s2) == pytest.approx(1e-3)

    # a NaN amplitude used to be pruned away as if it were zero
    test_nan_amplitude_rejected = refusals(*(
        refuse(ValueError, "NaN", StateVector, {BasisKet(("e",)): bad, BasisKet(("m",)): 1.0}, id=str(bad))
        for bad in [math.nan, complex(1, math.nan)]
    ))
    # a kept infinite amplitude would turn every marginal into NaN
    test_infinite_amplitude_rejected = refusals(*(
        refuse(ValueError, r"amplitude of \|e> is not finite",
               StateVector, {BasisKet(("e",)): bad, BasisKet(("m",)): 1.0}, id=str(bad))
        for bad in [math.inf, complex(0, -math.inf)]
    ))
    # "1", True and np.True_ were stored as 1+0j, and None raised TypeError
    test_an_amplitude_that_is_no_number_rejected = refusals(*(
        refuse(ValueError, rf"^amplitude of \|e> is not a number: {re.escape(repr(bad))}$",
               StateVector, {BasisKet(("e",)): bad, BasisKet(("m",)): 1.0}, id=repr(bad))
        for bad in ["1", True, np.True_, None, [1.0]]
    ))
    test_mixed_register_counts_rejected = refusals(
        refuse(ValueError, "register count", StateVector, {BasisKet(("e",)): 1.0, BasisKet(("e", "m")): 1.0}))


# (coefficients, message): every taker of unit coefficients gives the message, the finite-only takers the first four;
# the parameter ids show a message up to the array it shows
BAD_COEFFS = [
    ([1, 0], "expected 3 coefficients, got shape (2,)"),
    ([[1, 0, 0]], "expected 3 coefficients, got shape (1, 3)"),
    ([math.nan, 0, 0], f"coefficients must be finite, got {np.array([math.nan, 0, 0], dtype=complex)}"),
    ([1, math.inf, 0], f"coefficients must be finite, got {np.array([1, math.inf, 0], dtype=complex)}"),
    ([1, 1, 0], "coefficients must have unit norm, got |coeffs|^2 = 2.0"),
    ([0, 0, 0], "coefficients must have unit norm, got |coeffs|^2 = 0.0"),
]
UNIT_TAKERS = [
    (unit_coeffs, lambda c: (c, 3)),
    (encode, lambda c: (ISING_SCHEME, c)),
    (payload_state, lambda c: (c,)),
    (run_teleport, lambda c: (c,)),
]
FINITE_TAKERS = [
    (finite_coeffs, lambda c: (c, 3)),
    (bipartite_encode, lambda c: (cyclic_triple(3), ISING, c)),
]


class TestCoefficientChecks:
    """One check of shape, finite values and unit norm behind every function that takes coefficients."""

    def test_accepted_coefficients_come_back_as_a_complex_array(self):
        coeffs = unit_coeffs([0.6, 0.8j, 0], 3)
        assert coeffs.dtype == complex and coeffs.tolist() == [0.6, 0.8j, 0j]
        assert finite_coeffs([2, 0, 0], 3).tolist() == [2, 0, 0]

    test_unit_coefficient_takers_refuse_alike = refusals(*(
        refuse(ValueError, whole(message), entry, *args(coeffs), id=f"coeffs{i}-{message.split('[')[0]}")
        for i, (coeffs, message) in enumerate(BAD_COEFFS)
        for entry, args in UNIT_TAKERS
    ))
    test_the_bipartite_encoder_refuses_alike = refusals(*(
        refuse(ValueError, whole(message), entry, *args(coeffs), id=f"coeffs{i}-{message.split('[')[0]}")
        for i, (coeffs, message) in enumerate(BAD_COEFFS[:4])
        for entry, args in FINITE_TAKERS
    ))
    # a complex array holds "1" and True as 1, so run_teleport(["1", "0", "0"]) passed, and None as a NaN
    # the caller never gave
    test_a_coefficient_that_is_no_number_is_refused = refusals(
        *(refuse(ValueError, whole(message), unit_coeffs, coeffs, 3, id=repr(coeffs)) for coeffs, message in [
            (["1", 0, 0], "coefficient 0 is not a number: '1'"),
            ([True, 0, 0], "coefficient 0 is not a number: True"),
            ([b"1", 0, 0], "coefficient 0 is not a number: b'1'"),
            (np.array([True, False, False]), "coefficient 0 is not a number: np.True_"),
            ([None, 1, 0], "coefficient 0 is not a number: None"),
            ([0.6, 0.8j, "0"], "coefficient 2 is not a number: '0'"),
        ]),
        refuse(ValueError, whole("coefficient 0 is not a number: '1'"), run_teleport, ["1", "0", "0"],
               id="run_teleport"),
    )
