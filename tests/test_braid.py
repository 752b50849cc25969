import cmath
import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anyonmask import braid
from anyonmask.anyons import EPS, SIGMA, VAC, FusionChannelError, UnknownSectorError, abelian_c0, ising_like
from anyonmask.braid import (
    CHANNEL_MODES,
    SPLIT,
    BraidError,
    BraidOp,
    ChannelConflictError,
    apply_ops,
    circle,
    exchange,
    op_set,
    parse_ops,
    tripartite_braid,
    verify_invariance,
)
from anyonmask.latin import cyclic_triple
from anyonmask.masker import MaskingScheme, encode, random_unit_coeffs, verify_masking
from anyonmask.qstate import (
    PRUNE_EPS,
    BasisKet,
    StateVector,
    basis_state,
    inner,
    norm,
    partial_trace,
    product_basis,
    tagged_basis,
)
from helpers import (
    ROWS_D3,
    ROWS_D4,
    TAG_ORDER,
    dense_vector,
    max_amplitude_diff,
    reference_op,
    reference_ops,
    unit_coeffs,
)
from test_refusals import ABELIAN, ISING, ISING_SCHEME, refusals, refuse, whole

INV_SQRT2 = 1.0 / math.sqrt(2.0)
R1_SS = cmath.exp(-1j * math.pi / 8)
REPS_SS = cmath.exp(3j * math.pi / 8)

# Abelian label pairs whose left-over-right exchange phase is -1;
# every other pair (including anything with the vacuum) gives +1
NEG_EXCHANGE_PAIRS = {("m", "e"), ("eps", "e"), ("m", "eps"), ("eps", "eps")}

SIGMA_PAIR = ("sigma", "sigma", "1")
FOREIGN_LABEL = "label '{}' is not in the ising-c1 alphabet ('1', 'eps', 'sigma')"

# Ising models the op tables cannot read, each with the violation validate_model names
UNREADABLE = [
    (dataclasses.replace(ISING, r_eighths={k: v for k, v in ISING.r_eighths.items() if k != (SIGMA, SIGMA, EPS)}),
     "r-missing:(sigma,sigma;eps)"),
    (dataclasses.replace(ISING, fusion={k: v for k, v in ISING.fusion.items() if k != (EPS, SIGMA)}),
     "fusion-missing:(eps,sigma)"),
]


def abelian_exchange_phase(a, b):
    return -1.0 if (a, b) in NEG_EXCHANGE_PAIRS else 1.0


def seeded_encoded(scheme, seed):
    rng = np.random.default_rng(seed)
    coeffs = random_unit_coeffs(scheme.d, rng)
    return coeffs, encode(scheme, coeffs)


class TestExchange:
    def test_abelian_bc_factors_match_display_pattern(self, abelian_scheme):
        coeffs, state = seeded_encoded(abelian_scheme, 3)
        out = exchange(abelian_scheme.model, state, 1, 2)
        expected = {}
        for j, row in enumerate(ROWS_D4):
            for a, b, c in row:
                phase = abelian_exchange_phase(b, c)
                expected[BasisKet((a, c, b))] = coeffs[j] / 2.0 * phase
        assert set(out.amplitudes) == set(expected)
        for ket, amp in expected.items():
            assert out.amplitude(ket) == pytest.approx(amp, abs=1e-12)

    def test_vacuum_term_unchanged(self, abelian_model):
        state = basis_state(["1", "1", "1"])
        out = exchange(abelian_model, state, 0, 1)
        assert out.amplitudes == state.amplitudes

    def test_ising_ab_alpha_row(self, ising_scheme):
        coeffs, state = seeded_encoded(ising_scheme, 5)
        out = exchange(ising_scheme.model, state, 0, 1)
        amp0 = coeffs[0] / math.sqrt(3)
        assert out.amplitude(BasisKet(("1", "1", "1"))) == pytest.approx(amp0, abs=1e-12)
        assert out.amplitude(BasisKet(("eps", "eps", "eps"))) == pytest.approx(-amp0, abs=1e-12)
        # the sigma-pair term splits into equal-weight tagged channel branches
        assert out.amplitude(BasisKet(("sigma",) * 3, "1")) == pytest.approx(
            amp0 * R1_SS * INV_SQRT2, abs=1e-12
        )
        assert out.amplitude(BasisKet(("sigma",) * 3, "eps")) == pytest.approx(
            amp0 * REPS_SS * INV_SQRT2, abs=1e-12
        )

    def test_ising_ab_mixed_rows_swap_with_phases(self, ising_scheme):
        coeffs, state = seeded_encoded(ising_scheme, 5)
        out = exchange(ising_scheme.model, state, 0, 1)
        amp1 = coeffs[1] / math.sqrt(3)
        amp2 = coeffs[2] / math.sqrt(3)
        # beta row: |1 sigma eps> -> |sigma 1 eps>, |sigma eps 1> -> -i |eps sigma 1>
        assert out.amplitude(BasisKet(("sigma", "1", "eps"))) == pytest.approx(amp1, abs=1e-12)
        assert out.amplitude(BasisKet(("1", "eps", "sigma"))) == pytest.approx(amp1, abs=1e-12)
        assert out.amplitude(BasisKet(("eps", "sigma", "1"))) == pytest.approx(
            amp1 * -1j + amp2 * 0, abs=1e-12
        )
        # gamma row: |eps sigma 1> -> -i |sigma eps 1>
        assert out.amplitude(BasisKet(("sigma", "eps", "1"))) == pytest.approx(
            amp2 * -1j, abs=1e-12
        )

    def test_resolved_mode_tags_output(self, ising_model):
        state = basis_state(["sigma", "sigma", "1"])
        out = exchange(ising_model, state, 0, 1, mode="eps")
        assert out.amplitudes == {BasisKet(("sigma", "sigma", "1"), "eps"): REPS_SS}

    def test_a_cancellation_residue_is_no_conflict(self, ising_model):
        # the first exchange leaves a residue at most PRUNE_EPS in channel 1,
        # which the dense path carries into the second; a labeled state would
        # drop it, so the resolved mode does not count it as a conflict
        ket, tagged = BasisKet(("sigma", "sigma", "1")), BasisKet(("sigma", "sigma", "1"), "1")
        ops = (BraidOp("exchange", 0, 1), BraidOp("exchange", 0, 1, "eps"))
        state = StateVector({ket: 1.0, tagged: -INV_SQRT2 * (1 + 2**-52)})
        psi = dense_vector(state, ising_model.alphabet).reshape(-1)
        at = tagged_basis(ising_model.alphabet, 3)[1][tagged]
        residue = abs(braid._braid_dense(ising_model, ops[:1], 3, psi)[at])
        assert 0 < residue <= PRUNE_EPS
        assert set(exchange(ising_model, state, 0, 1).amplitudes) == {BasisKet(ket.labels, "eps")}
        out = apply_ops(ising_model, state, ops)
        assert out.amplitudes.keys() == {BasisKet(ket.labels, "eps")}
        assert out.amplitude(BasisKet(ket.labels, "eps")) == pytest.approx(REPS_SS**2 * INV_SQRT2, abs=1e-15)

    def test_tagged_term_braids_in_its_channel(self, ising_model):
        state = basis_state(["sigma", "sigma", "1"], tag="eps")
        out = exchange(ising_model, state, 0, 1, mode=SPLIT)
        assert out.amplitudes == {BasisKet(("sigma", "sigma", "1"), "eps"): REPS_SS}

    @pytest.mark.parametrize("mode", [SPLIT, "1", "eps"])
    def test_both_channel_conventions_preserve_masking(self, ising_scheme, mode):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = encode(ising_scheme, random_unit_coeffs(3, rng))
            out = exchange(ising_scheme.model, state, 1, 2, mode=mode)
            assert verify_masking(out, ising_scheme.model.alphabet, tol=2e-12).verdict

    test_non_adjacent_rejected = refusals(
        refuse(BraidError, "adjacent", exchange, ABELIAN, basis_state(["1", "e", "m"]), 0, 2))
    test_out_of_range_rejected = refusals(
        refuse(BraidError, "out of range", exchange, ABELIAN, basis_state(["1", "e"]), 1, 2))
    test_resolved_mode_conflicting_tag_rejected = refusals(
        refuse(ChannelConflictError, None, exchange, ISING, basis_state(SIGMA_PAIR, tag="1"), 0, 1, mode="eps"))
    # a channel-1 part larger than the residue PRUNE_EPS allows is a conflict
    test_a_channel_1_part_past_the_residue_is_a_conflict = refusals(
        refuse(ChannelConflictError, "already fuses in channel '1'; cannot resolve to 'eps'",
               apply_ops, ISING, StateVector({BasisKet(SIGMA_PAIR): 1.0, BasisKet(SIGMA_PAIR, "1"): -0.5}),
               (BraidOp("exchange", 0, 1), BraidOp("exchange", 0, 1, "eps"))))
    # the tag is none of TAGS, so no mode can find it in conflict
    test_a_foreign_tag_is_no_channel_in_every_mode = refusals(*(
        refuse(FusionChannelError, "^channel tag 'zz' is not one of ",
               exchange, ISING, basis_state(SIGMA_PAIR, tag="zz"), 0, 1, mode=mode, id=mode)
        for mode in CHANNEL_MODES
    ))
    test_bad_mode_rejected = refusals(
        refuse(BraidError, "channel mode", exchange, ISING, basis_state(SIGMA_PAIR), 0, 1, mode="both"))


class TestCircle:
    def test_ising_circle_b_around_a_matches_display(self, ising_scheme):
        coeffs, state = seeded_encoded(ising_scheme, 11)
        out = circle(ising_scheme.model, state, 1, 0)
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
        expected = {}
        for j, row in enumerate(ROWS_D3):
            for labels in row:
                expected[BasisKet(labels)] = coeffs[j] / math.sqrt(3) * phases[labels]
        assert max_amplitude_diff(out, StateVector(expected)) <= 1e-12

    def test_abelian_circle_c_around_b_monodromy_pattern(self, abelian_scheme):
        coeffs, state = seeded_encoded(abelian_scheme, 13)
        out = circle(abelian_scheme.model, state, 2, 1)
        expected = {}
        for j, row in enumerate(ROWS_D4):
            for labels in row:
                b, c = labels[1], labels[2]
                phase = abelian_exchange_phase(b, c) * abelian_exchange_phase(c, b)
                expected[BasisKet(labels)] = coeffs[j] / 2.0 * phase
        assert max_amplitude_diff(out, StateVector(expected)) <= 1e-12

    def test_circle_around_vacuum_trivial(self, ising_model):
        state = basis_state(["sigma", "1", "eps"])
        out = circle(ising_model, state, 0, 1)
        assert out.amplitudes == state.amplitudes

    def test_circle_equals_two_exchanges_abelian(self, abelian_scheme):
        _, state = seeded_encoded(abelian_scheme, 17)
        circled = circle(abelian_scheme.model, state, 1, 2)
        twice = exchange(
            abelian_scheme.model, exchange(abelian_scheme.model, state, 1, 2), 1, 2
        )
        assert max_amplitude_diff(circled, twice) <= 1e-12

    def test_abelian_double_circle_is_identity(self, abelian_scheme):
        _, state = seeded_encoded(abelian_scheme, 19)
        for x, y in ((0, 1), (0, 2), (1, 2)):
            out = circle(abelian_scheme.model, circle(abelian_scheme.model, state, x, y), x, y)
            assert max_amplitude_diff(out, state) == 0.0

    def test_tagged_sigma_pair_circles_in_its_channel(self, ising_model):
        vac_branch = basis_state(["sigma", "sigma", "1"], tag="1")
        eps_branch = basis_state(["sigma", "sigma", "1"], tag="eps")
        out_vac = circle(ising_model, vac_branch, 0, 1)
        out_eps = circle(ising_model, eps_branch, 0, 1)
        assert out_vac.amplitude(BasisKet(("sigma", "sigma", "1"), "1")) == pytest.approx(
            cmath.exp(-1j * math.pi / 4), abs=1e-15
        )
        assert out_eps.amplitude(BasisKet(("sigma", "sigma", "1"), "eps")) == pytest.approx(
            cmath.exp(3j * math.pi / 4), abs=1e-15
        )

    test_same_party_rejected = refusals(refuse(BraidError, "itself", circle, ISING, basis_state(["1", "1", "1"]), 1, 1))


class TestTripartiteBraid:
    def test_displayed_output_on_encoded_state(self, ising_scheme):
        coeffs, state = seeded_encoded(ising_scheme, 23)
        out = tripartite_braid(ising_scheme.model, state)
        n3 = 1.0 / math.sqrt(3)
        expected = {
            BasisKet(("1", "1", "1")): coeffs[0] * n3,
            BasisKet(("eps", "eps", "eps")): -coeffs[0] * n3,
            BasisKet(("sigma",) * 3, "1"): coeffs[0] * n3 * R1_SS**2 * INV_SQRT2,
            BasisKet(("sigma",) * 3, "eps"): coeffs[0] * n3 * R1_SS * REPS_SS * INV_SQRT2,
        }
        for j, sign_coeff in ((1, coeffs[1]), (2, coeffs[2])):
            for labels in ROWS_D3[j]:
                expected[BasisKet(labels)] = sign_coeff * n3 * -1j
        assert max_amplitude_diff(out, StateVector(expected)) <= 1e-12

    def test_vacuum_component_unchanged(self, ising_model):
        out = tripartite_braid(ising_model, basis_state(["1", "1", "1"]))
        assert out.amplitudes == {BasisKet(("1", "1", "1")): 1.0 + 0j}

    def test_norm_preserved_on_encoded_state(self, ising_scheme):
        _, state = seeded_encoded(ising_scheme, 29)
        out = tripartite_braid(ising_scheme.model, state)
        assert abs(norm(out) - norm(state)) <= 1e-12

    def test_tagged_all_sigma_term_evolves_in_channel(self, ising_model):
        vac_in = basis_state(["sigma"] * 3, tag="1")
        eps_in = basis_state(["sigma"] * 3, tag="eps")
        out_vac = tripartite_braid(ising_model, vac_in)
        out_eps = tripartite_braid(ising_model, eps_in)
        assert out_vac.amplitude(BasisKet(("sigma",) * 3, "1")) == pytest.approx(
            R1_SS**2, abs=1e-15
        )
        assert out_eps.amplitude(BasisKet(("sigma",) * 3, "eps")) == pytest.approx(
            R1_SS * REPS_SS, abs=1e-15
        )

    def test_two_sigma_term_splits_and_preserves_norm(self, ising_model):
        state = basis_state(["sigma", "sigma", "eps"])
        out = tripartite_braid(ising_model, state)
        assert abs(norm(out) - 1.0) <= 1e-12
        tags = {ket.tag for ket in out.amplitudes}
        assert tags == {"1", "eps"}

    def test_fermion_pair_term(self, ising_model):
        # pairs (eps,eps), (eps,1), (eps,1): single nontrivial factor -1
        out = tripartite_braid(ising_model, basis_state(["eps", "eps", "1"]))
        assert out.amplitudes == {BasisKet(("eps", "eps", "1")): -1.0 + 0j}

    test_non_ising_model_rejected = refusals(
        refuse(BraidError, "Ising", tripartite_braid, ABELIAN, basis_state(["1", "1", "1"])))
    test_four_registers_rejected = refusals(refuse(BraidError, "^the tripartite braid needs 3 registers, got 4$",
                                                   apply_ops, ISING, basis_state(["1"] * 4), parse_ops("t3")))


class TestTagBookkeeping:
    def test_tagged_branches_never_interfere(self, ising_scheme):
        _, state = seeded_encoded(ising_scheme, 31)
        out = tripartite_braid(ising_scheme.model, state)
        basis = product_basis(ising_scheme.model.alphabet, 1)
        whole = partial_trace(out, {0}, basis)
        # replay the trace with the tag sectors separated by hand
        sectors = {}
        for ket, amp in out.items():
            sectors.setdefault(ket.tag, {})[ket] = amp
        summed = sum(
            partial_trace(StateVector(sector), {0}, basis).entries
            for sector in sectors.values()
        )
        assert np.max(np.abs(whole.entries - summed)) == 0.0

    def test_no_ops_return_the_state_itself(self, ising_scheme):
        # nothing is compiled and no label is checked, even a foreign one
        _, state = seeded_encoded(ising_scheme, 37)
        assert apply_ops(ising_scheme.model, state, []) is state
        foreign = basis_state(["e", "m", "1"])
        assert apply_ops(ising_scheme.model, foreign, ()) is foreign


# (BraidOp fields, message): an op that cannot run must not exist, or its token could name it in a report
BAD_OPS = [
    ({"kind": "bogus"}, "unknown op kind 'bogus'"),
    ({"kind": "exchange", "x": 0, "y": 1, "mode": "both"}, "channel mode must be one of"),
    ({"kind": "circle", "x": 0, "y": 1, "mode": "eps "}, "channel mode must be one of"),
    ({"kind": "exchange"}, r"exchange needs integer parties x and y, got x=None, y=None"),
    ({"kind": "exchange", "x": 1.0, "y": 2}, r"exchange needs integer parties x and y, got x=1.0, y=2"),
    ({"kind": "circle", "x": 0, "y": True}, r"circle needs integer parties x and y, got x=0, y=True"),
    ({"kind": "tripartite", "x": 0, "y": 1}, r"the tripartite braid takes no parties, got x=0, y=1"),
    ({"kind": "tripartite", "y": 2}, r"the tripartite braid takes no parties, got x=None, y=2"),
    # a negative party read a register from the end; its token read "xCA"
    ({"kind": "exchange", "x": -1, "y": 0}, r"exchange needs integer parties x and y, got x=-1, y=0"),
    ({"kind": "exchange", "x": 0, "y": 2}, r"exchange requires adjacent parties, got \(0, 2\)"),
    ({"kind": "circle", "x": 1, "y": 1}, "cannot circle a party around itself"),
    # a mode on an op that has no channel to resolve ran as "split"
    ({"kind": "circle", "x": 0, "y": 1, "mode": "eps"}, "only an exchange takes a channel mode"),
    ({"kind": "tripartite", "mode": "1"}, "only an exchange takes a channel mode"),
    ({"kind": "circle", "x": 0, "y": 26}, r"parties must be below 26 to have a letter, got \(0, 26\)"),
]


class TestOpStrings:
    def test_round_trip(self):
        ops = parse_ops("xBC;cBA;t3")
        assert [op.token() for op in ops] == ["xBC", "cBA", "t3"]
        assert ops[0] == BraidOp(kind="exchange", x=1, y=2)
        assert ops[1] == BraidOp(kind="circle", x=1, y=0)
        assert ops[2] == BraidOp(kind="tripartite")

    def test_parties_are_stored_as_plain_ints(self):
        op = BraidOp("exchange", np.int64(0), np.int64(1))
        assert type(op.x) is int and type(op.y) is int
        assert hash(op) == hash(BraidOp("exchange", 0, 1))

    def test_any_integer_index_names_a_party(self, abelian_model):
        op = BraidOp(kind="exchange", x=np.int64(0), y=np.int64(1))
        assert op.token() == "xAB" and op == BraidOp(kind="exchange", x=0, y=1)
        state = basis_state(("e", "m", "1"))
        assert apply_ops(abelian_model, state, (op,)) == exchange(abelian_model, state, 0, 1)

    def test_a_party_past_c_has_a_token_letter(self, abelian_model):
        op = BraidOp("exchange", 3, 4)
        assert op.token() == "xDE"
        assert apply_ops(abelian_model, basis_state(("e",) * 5), (op,)) == basis_state(("e",) * 5)

    def test_apply_op_dispatch(self, ising_scheme):
        # one op through apply_ops is the named function, for each kind
        model = ising_scheme.model
        _, state = seeded_encoded(ising_scheme, 37)
        assert apply_ops(model, state, (BraidOp("exchange", 1, 2, "eps"),)) == exchange(model, state, 1, 2, "eps")
        assert apply_ops(model, state, (BraidOp("circle", 2, 0),)) == circle(model, state, 2, 0)
        assert apply_ops(model, state, (BraidOp("tripartite"),)) == tripartite_braid(model, state)

    test_unknown_token_rejected = refusals(refuse(BraidError, "unknown op token", parse_ops, "xBC;zap"))
    test_unknown_party_rejected = refusals(refuse(BraidError, "unknown op token 'xBz'", parse_ops, "xBz"))
    test_a_party_letter_past_c_reaches_the_op_check = refusals(
        refuse(BraidError, r"exchange requires adjacent parties, got \(1, 3\)", parse_ops, "xBD"))
    test_empty_rejected = refusals(refuse(BraidError, "empty", parse_ops, " ; "))
    # None and 5 failed with AttributeError, bytes with TypeError
    test_an_op_string_that_is_no_str_is_refused = refusals(*(
        refuse(BraidError, whole(f"an op string must be a str, got {text!r}"), parse_ops, text, id=repr(text))
        for text in [None, 5, b"xAB"]
    ))
    test_op_with_unknown_kind_or_mode_is_refused = refusals(*(
        refuse(BraidError, message, BraidOp, **fields, id=f"fields{i}-{message}")
        for i, (fields, message) in enumerate(BAD_OPS)
    ))
    # an op string is a sequence of one-letter "ops", which failed with AttributeError
    test_an_op_that_is_no_braid_op_is_refused = refusals(
        refuse(BraidError, whole("an op must be a BraidOp, got 'xAB'; parse_ops reads an op string"),
               apply_ops, ISING, basis_state(["1", "1", "1"]), "xAB", id="apply_ops"),
        refuse(BraidError, whole("an op must be a BraidOp, got 'xAB'; parse_ops reads an op string"),
               verify_invariance, ISING_SCHEME, "xAB", 5, id="verify_invariance"),
    )
    # a bare op, None or 5 failed with TypeError: object is not iterable
    test_a_word_that_is_no_sequence_is_refused = refusals(*(
        row
        for word in [BraidOp("exchange", 0, 1), None, 5]
        for row in (
            refuse(BraidError, whole(f"ops must be a word, a sequence of ops, got {word!r}"),
                   apply_ops, ISING, basis_state(["1", "1", "1"]), word, id=f"apply_ops-{word!r}"),
            refuse(BraidError, whole(f"ops must be a word, a sequence of ops, got {word!r}"),
                   verify_invariance, ISING_SCHEME, word, 5, id=f"verify_invariance-{word!r}"),
        )
    ))


class TestVerifyInvariance:
    def test_abelian_exchange_campaign(self, abelian_scheme):
        report = verify_invariance(abelian_scheme, parse_ops("xBC"), trials=50, seed=1)
        assert report.verdict
        assert report.worst_deviation <= 2e-12
        assert report.unitarity_defect <= 1e-12

    def test_ising_circle_campaign(self, ising_scheme):
        report = verify_invariance(ising_scheme, parse_ops("cBA"), trials=50, seed=2)
        assert report.verdict

    def test_two_stage_far_exchange(self, ising_scheme):
        # exchanging the outer parties decomposes into tripartite + adjacent exchange
        report = verify_invariance(ising_scheme, parse_ops("t3;xBC"), trials=50, seed=3)
        assert report.verdict

    def test_longer_mixed_sequence(self, ising_scheme):
        report = verify_invariance(ising_scheme, parse_ops("xAB;t3;cAC"), trials=30, seed=4)
        assert report.verdict

    def test_report_is_deterministic(self, ising_scheme):
        ops = parse_ops("t3")
        a = verify_invariance(ising_scheme, ops, trials=20, seed=5)
        b = verify_invariance(ising_scheme, ops, trials=20, seed=5)
        assert a.record() == b.record()

    def test_campaign_records_pre_and_post(self, abelian_scheme):
        report = verify_invariance(abelian_scheme, parse_ops("cAB"), trials=10, seed=6)
        assert report.pre_report.verdict
        assert report.post_report.verdict

    def test_norm_preserved_across_random_sequences(self, ising_scheme):
        rng = np.random.default_rng(41)
        ops_pool = [
            BraidOp(kind="exchange", x=0, y=1),
            BraidOp(kind="exchange", x=1, y=2),
            BraidOp(kind="circle", x=0, y=2),
            BraidOp(kind="tripartite"),
        ]
        for _ in range(20):
            state = encode(ising_scheme, random_unit_coeffs(3, rng))
            picks = rng.integers(0, len(ops_pool), size=3)
            out = apply_ops(ising_scheme.model, state, [ops_pool[i] for i in picks])
            assert abs(norm(out) - 1.0) <= 1e-12

    # the unbraided run is run_masking_campaign, and a report's empty ops would not parse
    test_no_ops_is_no_braid_campaign = refusals(*(
        refuse(BraidError, whole("no ops to braid with; run_masking_campaign checks the unbraided scheme"),
               verify_invariance, ISING_SCHEME, ops)
        for ops in ((), [])
    ))


def every_op(kind):
    """The sweep ops plus, for Ising, both exchanges resolved into each channel."""
    ops = op_set(kind)
    if kind == "ising":
        ops += tuple(
            BraidOp(kind="exchange", x=x, y=x + 1, mode=mode)
            for x in (0, 1)
            for mode in CHANNEL_MODES
            if mode != SPLIT
        )
    return ops


class TestCodeSpaceProperties:
    """Every op is an isometry on the encoded states, whatever it does elsewhere."""

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_op_preserves_the_norm_of_encoded_states(self, kind, data, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if kind == "abelian" else ising_scheme
        op = data.draw(st.sampled_from(every_op(kind)))
        state = encode(scheme, data.draw(unit_coeffs(scheme.d)))
        assert abs(norm(apply_ops(scheme.model, state, (op,))) - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_braided_encoder_rows_stay_orthonormal(self, kind, data, abelian_scheme, ising_scheme):
        # (U E)^dagger (U E) = I over the d encoder rows: U is an isometry on the code space
        scheme = abelian_scheme if kind == "abelian" else ising_scheme
        ops = data.draw(st.lists(st.sampled_from(op_set(kind)), min_size=1, max_size=3))
        rows = [apply_ops(scheme.model, encode(scheme, basis), ops) for basis in np.eye(scheme.d)]
        gram = np.array([[inner(a, b) for b in rows] for a in rows])
        np.testing.assert_allclose(gram, np.eye(scheme.d), rtol=0, atol=1e-12)


class TestPinnedConventions:
    """Documented conventions, pinned so that a rewrite cannot change them silently."""

    def test_ising_exchange_is_not_unitary_on_the_tagged_space(self, ising_model):
        # The untagged sigma-sigma split sends an untagged ket into the same
        # tagged kets as its tagged twin: orthogonal inputs, overlapping
        # outputs.  Encoded states are untagged, so this never touches them.
        untagged = basis_state(["sigma", "sigma", "1"])
        tagged = basis_state(["sigma", "sigma", "1"], tag="1")
        assert inner(untagged, tagged) == 0
        overlap = inner(exchange(ising_model, untagged, 0, 1), exchange(ising_model, tagged, 0, 1))
        assert abs(overlap) == pytest.approx(INV_SQRT2, abs=1e-15)

    def test_ising_circle_is_not_two_exchanges(self, ising_model):
        # circle() gives a fermion pair -1, where two exchanges give (-1)^2
        pair = basis_state(["eps", "eps", "1"])
        assert circle(ising_model, pair, 1, 0).amplitudes == {BasisKet(("eps", "eps", "1")): -1.0 + 0j}
        assert apply_ops(ising_model, pair, parse_ops("xAB;xAB")).amplitudes == {
            BasisKet(("eps", "eps", "1")): 1.0 + 0j
        }
        # an untagged sigma pair circles untagged in the vacuum channel,
        # where the first exchange splits it into tagged branches
        sigmas = basis_state(["sigma", "sigma", "1"])
        assert {ket.tag for ket in circle(ising_model, sigmas, 1, 0).amplitudes} == {None}
        assert {ket.tag for ket in apply_ops(ising_model, sigmas, parse_ops("xAB;xAB")).amplitudes} == {
            "1",
            "eps",
        }

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_braid_relation_holds_on_every_basis_ket(self, kind, abelian_model, ising_model):
        # xAB;xBC;xAB = xBC;xAB;xBC, tagged or not, split or not
        model = abelian_model if kind == "abelian" else ising_model
        left, right = parse_ops("xAB;xBC;xAB"), parse_ops("xBC;xAB;xBC")
        for labels in itertools.product(model.alphabet, repeat=3):
            for tag in (None, "1", "eps"):
                ket = basis_state(labels, tag=tag)
                assert max_amplitude_diff(apply_ops(model, ket, left), apply_ops(model, ket, right)) <= 1e-15

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "model", [abelian_c0()] + [ising_like(c) for c in range(1, 16, 2)], ids=lambda m: m.name
    )
    def test_both_party_orders_name_one_map(self, model, n):
        # xBA is xAB in every mode and cBA is cAB: there is no inverse exchange or circle,
        # whether the table is laid out from the registers' pair or read off the per-ket rule
        pairs = [(x, x + 1) for x in range(n - 1)]
        ops = [BraidOp("exchange", x, y, mode) for x, y in pairs for mode in CHANNEL_MODES]
        ops += [BraidOp("circle", x, y) for x, y in itertools.combinations(range(n), 2)]
        for op, compile_ in itertools.product(ops, (braid._compile, braid._compile_kets)):
            forward = compile_(model, op, n)
            reverse = compile_(model, dataclasses.replace(op, x=op.y, y=op.x), n)
            for name in ("src", "amp", "conflicts"):
                a, b = getattr(reverse, name), getattr(forward, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (op, name)


def outcome(fn):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn()
    except ValueError as err:
        return type(err), str(err)


def basis_kets(model):
    return [
        BasisKet(labels, tag)
        for labels in itertools.product(model.alphabet, repeat=3)
        for tag in TAG_ORDER
    ]


class TestOpTables:
    """The compiled tables against the per-term dict loops they replaced."""

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_every_op_on_every_tagged_basis_ket(self, kind, abelian_model, ising_model):
        model = abelian_model if kind == "abelian" else ising_model
        conflicts = 0
        for op in every_op(kind):
            for ket in basis_kets(model):
                state = StateVector({ket: 1.0})
                got = outcome(lambda: apply_ops(model, state, (op,)))
                want = outcome(lambda: reference_op(model, state, op))
                if isinstance(want, tuple):
                    assert got == want
                    conflicts += 1
                    continue
                assert set(got.amplitudes) == set(want.amplitudes), (op, ket)
                assert max_amplitude_diff(got, want) <= 1e-15, (op, ket)
        # each resolved exchange refuses the sigma pairs tagged with the other channel
        assert conflicts == (0 if kind == "abelian" else 4 * 3)

    @pytest.mark.parametrize("model", [abelian_c0()] + [ising_like(c) for c in range(1, 16, 2)], ids=lambda m: m.name)
    def test_every_op_bit_for_bit_at_every_chern_number(self, model):
        # kappa_sigma = -1 at c = 3, 5, 11, 13 takes the other branch of the tripartite rule
        def bits(state):
            return {ket: np.array(amp, dtype=complex).tobytes() for ket, amp in state.items()}

        for op in every_op(model.kind):
            for ket in basis_kets(model):
                state = StateVector({ket: 1.0})
                got = outcome(lambda: apply_ops(model, state, (op,)))
                want = outcome(lambda: reference_op(model, state, op))
                if isinstance(want, tuple):
                    assert got == want, (op, ket)
                else:
                    assert bits(got) == bits(want), (op, ket)

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_tagged_superpositions(self, kind, data, abelian_model, ising_model):
        model = abelian_model if kind == "abelian" else ising_model
        op = data.draw(st.sampled_from(every_op(kind)))
        kets = data.draw(st.lists(st.sampled_from(basis_kets(model)), min_size=1, max_size=12, unique=True))
        finite = st.floats(-1, 1, allow_nan=False)
        state = StateVector({ket: complex(data.draw(finite), data.draw(finite)) for ket in kets})
        assume(len(state))  # an empty state has no register count to braid
        got = outcome(lambda: apply_ops(model, state, (op,)))
        want = outcome(lambda: reference_op(model, state, op))
        if isinstance(want, tuple) or isinstance(got, tuple):
            # with two conflicting terms the reference names the first in
            # the state's order, the table the first in basis order
            assert isinstance(got, tuple) and isinstance(want, tuple) and got[0] is want[0]
            return
        difference = dense_vector(got, model.alphabet) - dense_vector(want, model.alphabet)
        assert np.abs(difference).max(initial=0.0) <= 1e-15

    @pytest.mark.parametrize("kind", ["abelian", "ising"])
    def test_braided_rows_equal_the_labeled_rows(self, kind, abelian_scheme, ising_scheme):
        scheme = abelian_scheme if kind == "abelian" else ising_scheme
        model, alphabet = scheme.model, scheme.model.alphabet
        for ops in itertools.product(op_set(kind), repeat=2):
            labeled = np.stack(
                [dense_vector(reference_ops(model, encode(scheme, basis), ops), alphabet) for basis in np.eye(scheme.d)]
            )
            np.testing.assert_allclose(braid._braided_rows(scheme, ops), labeled, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("model", [abelian_c0(), ising_like(1), ising_like(3)], ids=lambda m: m.name)
    def test_pair_tables_equal_the_per_ket_compile(self, model, n):
        # every op compiles on the registers it touches and is laid out over
        # n by index arithmetic; every array must be the per-ket one
        pairs = list(itertools.permutations(range(n), 2))
        ops = [BraidOp("exchange", x, y, mode) for x, y in pairs if abs(x - y) == 1 for mode in CHANNEL_MODES]
        ops += [BraidOp("circle", x, y) for x, y in pairs]
        if model.kind == "ising" and n == 3:
            ops.append(BraidOp("tripartite"))
        for op in ops:
            got, want = braid._compile(model, op, n), braid._compile_kets(model, op, n)
            assert got.op == want.op and got.kets == want.kets
            for name in ("src", "amp", "conflicts"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (op, name)

    # a ket outside the tagged basis is named by its first foreign label, or else its tag, whatever the op
    test_a_foreign_ket_names_its_first_foreign_label_or_else_its_tag = refusals(*(
        refuse(error, whole(message), apply_ops, ISING,
               StateVector({BasisKet(("1", "1", "1")): 0.6, BasisKet(labels, tag): 0.8}), parse_ops(ops))
        for ops, labels, tag, error, message in [
            ("xAB", ("1", "zz", "eps"), None, UnknownSectorError, FOREIGN_LABEL.format("zz")),
            ("xBC", ("1", "yy", "zz"), None, UnknownSectorError, FOREIGN_LABEL.format("yy")),
            ("cCA", ("yy", "1", "zz"), None, UnknownSectorError, FOREIGN_LABEL.format("yy")),
            ("t3", ("sigma", "zz", "yy"), None, UnknownSectorError, FOREIGN_LABEL.format("zz")),
            ("xAB", ("sigma", "sigma", "1"), "zz", FusionChannelError,
             "channel tag 'zz' is not one of (None, '1', 'eps')"),
        ]
    ))
    # every op's domain is checked before any ket is read, wherever the op outside it stands
    test_an_op_outside_its_domain_is_refused_before_any_ket = refusals(*(
        refuse(BraidError, whole(message), apply_ops, model,
               StateVector({BasisKet(("1", "1", "1")): 0.6, BasisKet(("1", "zz", "1")): 0.8}), parse_ops(ops),
               id=f"{model.name}-{ops}")
        for model, message, orders in [
            (ABELIAN, "the tripartite braid is defined only for Ising-type models", ("xAB;t3", "t3;xAB")),
            (ISING, "party indices (3, 4) out of range for 3 registers", ("xAB;xDE", "xDE;xAB")),
        ]
        for ops in orders
    ))
    # the whole 3 d^n tagged basis and an n-register table were built first: 10 Abelian registers took 1.6 GB
    test_a_state_past_the_dense_layout_is_refused_before_any_is_built = refusals(*(
        refuse(BraidError, whole(f"{n} registers make {3 * model.d**n} tagged kets, more than the dense layout's 65536"),
               entry, model, basis_state((model.alphabet[1],) * n), *args, id=f"{entry.__name__}-{model.name}-{n}")
        for model, n in [(ABELIAN, 8), (ISING, 10), (ABELIAN, 20), (ISING, 20)]
        for entry, args in [(apply_ops, (parse_ops("xAB"),)), (exchange, (0, 1)), (circle, (1, 0)),
                            (tripartite_braid, ())]
    ))
    # a missing entry failed mid-compile with a bare KeyError
    test_a_model_the_tables_cannot_read_is_refused_by_name = refusals(*(
        refuse(BraidError, whole(f"model ising-c1 is not valid: {violation}"), entry, *args,
               id=f"{entry.__name__}-{violation}")
        for model, violation in UNREADABLE
        for entry, args in [
            (apply_ops, (model, basis_state(SIGMA_PAIR, tag="1"), parse_ops("xAB"))),
            (verify_invariance, (MaskingScheme(model, cyclic_triple(3)), parse_ops("xAB"))),
        ]
    ))
    test_a_channel_conflict_on_the_rows_is_refused = refusals(
        refuse(ChannelConflictError, "already fuses in channel 'eps'; cannot resolve to '1'",
               verify_invariance, ISING_SCHEME, (BraidOp("exchange", 0, 1, "eps"), BraidOp("exchange", 0, 1, "1")),
               trials=5))
    # the dict loop of the tripartite braid read any tag but "1" as "eps"
    test_a_foreign_tag_on_a_sigma_pair_is_no_channel_of_it = refusals(
        refuse(FusionChannelError, "^channel tag 'zz' is not one of ",
               tripartite_braid, ISING, basis_state(SIGMA_PAIR, tag="zz")))
    # the dict loops never looked at party C during xAB, nor at a tag they did not read
    test_what_the_dict_loops_passed_on_is_refused = refusals(
        refuse(UnknownSectorError, "'zz' is not in the ising-c1 alphabet",
               exchange, ISING, basis_state(("1", "eps", "zz")), 0, 1),
        refuse(FusionChannelError, "channel tag 'zz' is not one of",
               circle, ISING, basis_state(("1", "eps", "1"), tag="zz"), 0, 1),
    )


class TestTableMemo:
    """Tables are compiled once per model content, op and register count."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        monkeypatch.setattr(braid, "_TABLES", {})
        built = []
        real = braid._compile

        def counting(model, op, n):
            built.append((model.kind, op, n))
            return real(model, op, n)

        monkeypatch.setattr(braid, "_compile", counting)
        return built

    def test_fresh_models_built_alike_share_one_table(self, compiled):
        first, second = abelian_c0(), abelian_c0()
        assert first is not second
        op = parse_ops("xAB")[0]
        state = basis_state(("e", "m", "1"))
        assert exchange(first, state, 0, 1) == exchange(second, state, 0, 1)
        assert braid._table(first, op, 3) is braid._table(second, op, 3)
        assert compiled == [("abelian", op, 3)]

    def test_a_mode_no_pair_splits_shares_the_split_table(self, compiled):
        # no Abelian pair fuses in two channels, so every mode is one map
        model, state = abelian_c0(), basis_state(("e", "m", "1"))
        outs = [exchange(model, state, 0, 1, mode=mode) for mode in CHANNEL_MODES]
        assert outs[0] == outs[1] == outs[2]
        assert len(braid._TABLES) == 1
        assert compiled == [("abelian", BraidOp("exchange", 0, 1), 3)]

    def test_a_changed_phase_gets_its_own_table(self, compiled, ising_model):
        changed = dataclasses.replace(
            ising_model, r_eighths={**ising_model.r_eighths, (SIGMA, SIGMA, VAC): 0}
        )
        op = parse_ops("cAB")[0]
        assert braid._table(changed, op, 3) is not braid._table(ising_model, op, 3)
        assert len(compiled) == 2
        state = basis_state(("sigma", "sigma", "1"))
        assert circle(changed, state, 0, 1) != circle(ising_model, state, 0, 1)

    def test_one_sweep_builds_eleven_tables(self, compiled, abelian_scheme, ising_scheme):
        for kind, scheme in (("abelian", abelian_scheme), ("ising", ising_scheme)):
            for length in (1, 2, 3):
                for ops in itertools.product(op_set(kind), repeat=length):
                    verify_invariance(scheme, ops, trials=1)
        assert len(compiled) == len(braid._TABLES) == 11
        assert collections.Counter(kind for kind, _, _ in compiled) == {"abelian": 5, "ising": 6}
