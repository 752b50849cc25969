import ast
import cmath
import itertools
import math

import numpy as np
import pytest

from anyonmask.anyons import ISING_ALPHABET
from anyonmask import masker
from anyonmask.latin import constant_column_square, constant_row_square, cyclic_square
from anyonmask.masker import random_unit_coeffs
from anyonmask.qstate import (
    BasisKet,
    DensityMatrix,
    StateVector,
    hs_distance,
    inner,
    norm,
    partial_trace,
    product_basis,
)
from anyonmask.teleport import (
    OMEGA,
    alice_measure,
    alice_projector_states,
    build_channel,
    build_joint,
    correct,
    omega_power,
    payload_state,
    permutation_encode,
    run_teleport,
)
from helpers import dense_vector, max_amplitude_diff
from test_float_edge import PACKAGE, _function, _name, _tree
from test_refusals import refusals, refuse

LABELS = ISING_ALPHABET
ENCODED = permutation_encode(build_joint([1.0, 0.0, 0.0]))


def encoded_expected(coeffs) -> StateVector:
    """The encoding target built directly: sum_xz coeffs[z] |x, x+z, z> / sqrt(3)."""
    amps = {}
    for x in range(3):
        for z in range(3):
            ket = BasisKet((LABELS[x], LABELS[(x + z) % 3], LABELS[z]))
            amps[ket] = coeffs[z] / math.sqrt(3)
    return StateVector(amps)


def dense_projection_oracle(encoded: StateVector, outcome: int):
    """Probability and Bob vector via a full numpy projection."""
    psi = dense_vector(encoded, LABELS)[..., 0]  # untagged sector
    chi = np.array(
        [[omega_power((outcome - 1) * (y - x)) for y in range(3)] for x in range(3)]
    )
    bob = np.einsum("xy,xyz->z", (chi / 3.0).conj(), psi)
    prob = float(np.sum(np.abs(bob) ** 2))
    return prob, bob / math.sqrt(prob)


class TestOmega:
    def test_cube_root_of_unity(self):
        assert omega_power(0) == 1
        assert OMEGA == pytest.approx(cmath.exp(2j * math.pi / 3), abs=1e-15)
        assert 1 + OMEGA + OMEGA**2 == pytest.approx(0, abs=1e-15)
        assert omega_power(2) == OMEGA.conjugate()
        assert omega_power(-1) == omega_power(2)


class TestBuildChannel:
    def test_three_term_state(self):
        channel = build_channel()
        amp = 1 / math.sqrt(3)
        assert set(channel.amplitudes) == {
            BasisKet(("1", "1")),
            BasisKet(("eps", "eps")),
            BasisKet(("sigma", "sigma")),
        }
        assert norm(channel) == pytest.approx(1.0, abs=1e-15)
        assert channel.amplitude(BasisKet(("1", "1"))) == pytest.approx(amp, abs=1e-15)

    def test_both_marginals_maximally_mixed(self):
        channel = build_channel()
        basis = product_basis(LABELS, 1)
        for party in (0, 1):
            rho = partial_trace(channel, {party}, basis)
            np.testing.assert_allclose(rho.entries, np.eye(3) / 3, atol=1e-15)

    def test_inner_with_sign_flipped_partner(self):
        channel = build_channel()
        flipped = StateVector(
            {
                BasisKet(("1", "1")): 1 / math.sqrt(3),
                BasisKet(("eps", "eps")): 1 / math.sqrt(3),
                BasisKet(("sigma", "sigma")): -1 / math.sqrt(3),
            }
        )
        # oracle: (1 + 1 - 1) / 3 by direct summation
        assert inner(channel, flipped) == pytest.approx(1 / 3, abs=1e-15)


class TestBuildJoint:
    def test_basis_input(self):
        joint = build_joint([1.0, 0.0, 0.0])
        amp = 1 / math.sqrt(3)
        expected = {
            BasisKet(("1", "1", "1")): amp,
            BasisKet(("1", "eps", "eps")): amp,
            BasisKet(("1", "sigma", "sigma")): amp,
        }
        assert max_amplitude_diff(joint, StateVector(expected)) <= 1e-15

    def test_payload_marginal_is_projector(self):
        coeffs = np.array([0.6, 0.0, 0.8j])
        joint = build_joint(coeffs)
        rho = partial_trace(joint, {0}, product_basis(LABELS, 1))
        np.testing.assert_allclose(rho.entries, np.outer(coeffs, coeffs.conj()), atol=1e-15)

    def test_norm_one(self):
        rng = np.random.default_rng(43)
        assert norm(build_joint(random_unit_coeffs(3, rng))) == pytest.approx(1.0, abs=1e-12)

    test_non_unit_rejected = refusals(refuse(ValueError, "unit norm", build_joint, [1.0, 1.0, 0.0]))
    test_wrong_arity_rejected = refusals(refuse(ValueError, "3 coefficients", build_joint, [1.0, 0.0]))


class TestPermutationEncode:
    def test_matches_direct_construction(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            coeffs = random_unit_coeffs(3, rng)
            encoded = permutation_encode(build_joint(coeffs))
            assert max_amplitude_diff(encoded, encoded_expected(coeffs)) <= 1e-13

    def test_is_a_basis_permutation(self):
        # all 27 basis kets map to distinct kets, so the map is unitary
        images = set()
        for x in LABELS:
            for y in LABELS:
                for z in LABELS:
                    out = permutation_encode(StateVector({BasisKet((x, y, z)): 1.0}))
                    assert len(out) == 1
                    images.update(out.amplitudes)
        assert len(images) == 27

    def test_moves_each_amplitude_untouched(self):
        # |x, y, z> -> |z, y + x, x>; summing into 0j turned complex(-0.0, 0.5) into 0.5j
        amps = {}
        for x, y, z in itertools.product(range(3), repeat=3):
            real = -0.0 if (x + y + z) % 2 else 0.0
            amps[BasisKet((LABELS[x], LABELS[y], LABELS[z]))] = complex(real, 1 + 9 * x + 3 * y + z)
        encoded = permutation_encode(StateVector(amps))
        assert len(encoded) == 27
        for ket, amp in amps.items():
            x, y, z = (LABELS.index(label) for label in ket.labels)
            moved = encoded.amplitude(BasisKet((LABELS[z], LABELS[(y + x) % 3], LABELS[x])))
            assert (moved.real, moved.imag) == (amp.real, amp.imag)
            assert math.copysign(1.0, moved.real) == math.copysign(1.0, amp.real), ket

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            amps = {
                BasisKet((LABELS[i], LABELS[j], LABELS[k])): complex(*rng.standard_normal(2))
                for i in range(3)
                for j in range(3)
                for k in range(3)
            }
            state = StateVector(amps)
            assert norm(permutation_encode(state)) == pytest.approx(norm(state), abs=1e-12)

    def test_alice_registers_maximally_mixed_for_every_input(self):
        rng = np.random.default_rng(59)
        basis = product_basis(LABELS, 1)
        for _ in range(20):
            encoded = permutation_encode(build_joint(random_unit_coeffs(3, rng)))
            for party in (0, 1):
                rho = partial_trace(encoded, {party}, basis)
                np.testing.assert_allclose(rho.entries, np.eye(3) / 3, atol=1e-12)

    def test_held_register_carries_input_populations(self):
        # Bob's marginal equals diag(|alpha|^2, |beta|^2, |gamma|^2) before
        # any outcome is announced; it is maximally mixed only on average
        encoded = permutation_encode(build_joint([0.6, 0.8, 0.0]))
        rho = partial_trace(encoded, {2}, product_basis(LABELS, 1))
        np.testing.assert_allclose(rho.entries, np.diag([0.36, 0.64, 0.0]), atol=1e-12)

    def test_is_the_latin_square_encoder_of_a_triple(self):
        # A = constant-row, B = backward cyclic, C = constant-column: validate_triple
        # refuses it (C-not-latin), so the encoder rows are built from the squares
        rows = masker._rows((constant_row_square(3), cyclic_square(3, "backward"), constant_column_square(3)))
        rng = np.random.default_rng(43)
        for _ in range(50):
            coeffs = random_unit_coeffs(3, rng)
            latin = masker._combined(rows, coeffs, ISING_ALPHABET)
            assert permutation_encode(build_joint(coeffs)).amplitudes == latin.amplitudes

    test_tagged_state_rejected = refusals(
        refuse(ValueError, "untagged", permutation_encode, StateVector({BasisKet(("1", "1", "1"), "eps"): 1.0})))
    test_register_count_checked = refusals(refuse(ValueError, "3 registers", permutation_encode, build_channel()))


class TestProjectorStates:
    def test_pairwise_orthogonal_with_norm_three(self):
        states = alice_projector_states()
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                value = inner(si, sj)
                if i == j:
                    assert value == pytest.approx(9.0, abs=1e-12)  # norm 3 each
                else:
                    assert value == pytest.approx(0.0, abs=1e-12)

    def test_first_state_is_uniform(self):
        first = alice_projector_states()[0]
        assert all(amp == 1.0 for amp in first.amplitudes.values())
        assert len(first) == 9


class TestAliceMeasure:
    def test_basis_input_gives_vacuum_bob_every_outcome(self):
        encoded = permutation_encode(build_joint([1.0, 0.0, 0.0]))
        for outcome in (1, 2, 3):
            probability, bob = alice_measure(encoded, outcome)
            assert probability == pytest.approx(1 / 3, abs=1e-12)
            assert abs(bob.amplitude(BasisKet(("1",)))) == pytest.approx(1.0, abs=1e-12)

    def test_outcome_two_phases(self):
        rng = np.random.default_rng(61)
        coeffs = random_unit_coeffs(3, rng)
        encoded = permutation_encode(build_joint(coeffs))
        _, bob = alice_measure(encoded, 2)
        expected = [coeffs[0], coeffs[1] * omega_power(2), coeffs[2] * omega_power(1)]
        for label, value in zip(LABELS, expected):
            assert bob.amplitude(BasisKet((label,))) == pytest.approx(value, abs=1e-12)

    def test_probabilities_match_dense_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            encoded = permutation_encode(build_joint(random_unit_coeffs(3, rng)))
            for outcome in (1, 2, 3):
                probability, bob = alice_measure(encoded, outcome)
                oracle_prob, oracle_bob = dense_projection_oracle(encoded, outcome)
                assert probability == pytest.approx(oracle_prob, abs=1e-12)
                for z, label in enumerate(LABELS):
                    assert bob.amplitude(BasisKet((label,))) == pytest.approx(
                        oracle_bob[z], abs=1e-12
                    )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(71)
        encoded = permutation_encode(build_joint(random_unit_coeffs(3, rng)))
        total = sum(alice_measure(encoded, i)[0] for i in (1, 2, 3))
        assert total == pytest.approx(1.0, abs=1e-12)

    test_outcome_range_checked = refusals(refuse(ValueError, "outcome", alice_measure, ENCODED, 0))
    # Alice's pairs |1 1> and |eps eps> have y = x, phase 1 in every projector, so the kets cancel
    test_an_outcome_of_zero_probability_is_refused = refusals(
        refuse(ValueError, "^outcome 1 has zero probability on this state$",
               alice_measure, StateVector({BasisKet(("1", "1", "1")): 1 / math.sqrt(2),
                                           BasisKet(("eps", "eps", "1")): -1 / math.sqrt(2)}), 1))


class TestCorrect:
    def test_outcome_one_is_identity(self):
        state = payload_state([0.6, 0.8j, 0.0])
        assert correct(state, 1).amplitudes == state.amplitudes

    @pytest.mark.parametrize("outcome", [2, 3])
    def test_phase_cancellation(self, outcome):
        rng = np.random.default_rng(73)
        coeffs = random_unit_coeffs(3, rng)
        # Bob's uncorrected branch carries omega^{-(outcome-1) z} on sector z
        twisted = StateVector(
            {
                BasisKet((label,)): coeffs[z] * omega_power(-(outcome - 1) * z)
                for z, label in enumerate(LABELS)
            }
        )
        fixed = correct(twisted, outcome)
        assert max_amplitude_diff(fixed, payload_state(coeffs)) <= 1e-12

    test_outcome_range_checked = refusals(refuse(ValueError, "outcome", correct, payload_state([1.0, 0.0, 0.0]), 4))


class TestRunTeleport:
    def test_basis_input(self):
        run = run_teleport([1.0, 0.0, 0.0])
        assert run.verdict
        for outcome in run.outcomes:
            assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)
            assert abs(outcome.corrected_state.amplitude(BasisKet(("1",)))) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_seeded_random_inputs(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            run = run_teleport(random_unit_coeffs(3, rng))
            assert run.verdict
            assert run.probability_sum == pytest.approx(1.0, abs=1e-12)
            for outcome in run.outcomes:
                assert outcome.probability == pytest.approx(1 / 3, abs=1e-12)
                assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)
            assert max(run.alice_marginal_deviations) <= 1e-12

    def test_record_structure(self):
        record = run_teleport([0.6, 0.8j, 0.0]).record()
        assert record["verdict"] == "pass"
        assert len(record["outcomes"]) == 3
        assert record["outcomes"][1]["correction"] == "diag(1,w,w2)"
        assert record["probability_sum"] == pytest.approx(1.0, abs=1e-12)

    def test_marginal_deviations_are_those_of_each_register_against_i_over_3(self):
        rng = np.random.default_rng(5)
        basis = product_basis(LABELS, 1)
        mixed = DensityMatrix.maximally_mixed(basis)
        for _ in range(10):
            run = run_teleport(random_unit_coeffs(3, rng))
            want = [hs_distance(partial_trace(run.encoded, {party}, basis), mixed) for party in (0, 1, 2)]
            assert run.alice_marginal_deviations == tuple(want[:2])
            assert run.held_marginal_deviation == want[2]

    test_non_unit_rejected = refusals(refuse(ValueError, "unit norm", run_teleport, [1.0, 1.0, 1.0]))
    # was "encoding needs 3 registers, got 0" from an empty payload state
    test_non_finite_rejected = refusals(*(
        refuse(ValueError, "finite", run_teleport, [bad, 0.0, 0.0], id=str(bad)) for bad in [math.nan, math.inf]
    ))


class TestForeignInput:
    """Each map refuses a state it cannot read, by name, rather than misreading it."""

    test_foreign_label_is_named = refusals(
        refuse(ValueError, "label 'zz' is not in the Ising alphabet",
               permutation_encode, StateVector({BasisKet(("1", "zz", "1")): 1.0}), id="permutation_encode"),
        refuse(ValueError, "label 'zz' is not in the Ising alphabet",
               alice_measure, StateVector({BasisKet(("1", "zz", "1")): 1.0}), 1, id="alice_measure"),
        refuse(ValueError, "label 'zz' is not in the Ising alphabet",
               correct, StateVector({BasisKet(("zz",)): 1.0}), 2, id="correct"),
    )
    # read as untagged, |1 1 1>_eps gave outcome 1 probability 1/9
    test_measure_refuses_a_tagged_state = refusals(
        refuse(ValueError, "untagged", alice_measure, StateVector({BasisKet(("1", "1", "1"), "eps"): 1.0}), 1))
    test_correct_refuses_a_tagged_state = refusals(
        refuse(ValueError, "untagged", correct, StateVector({BasisKet(("eps",), "1"): 1.0}), 2))
    # Bob holds one register; a pair was phased by its first label
    test_correct_refuses_two_registers = refusals(
        refuse(ValueError, "1 register, got 2", correct, StateVector({BasisKet(("1", "eps")): 1.0}), 2))


def test_only_sectors_reads_the_labels_of_a_ket():
    # one read per ket: every other function takes sector indices from _sectors
    tree = _tree(PACKAGE / "teleport.py")
    reads = [sub for sub in ast.walk(tree) if _name(sub) in {"labels", "_KET_SECTORS"}]
    inside = list(ast.walk(_function(tree, "_sectors")))
    outside = [sub.lineno for sub in reads if all(sub is not node for node in inside)]
    assert outside == []
    assert {_name(sub) for sub in reads} == {"labels", "_KET_SECTORS"}
