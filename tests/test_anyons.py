import cmath
import contextlib
import math
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonmask.anyons import (
    ABELIAN_ALPHABET,
    EPS,
    E,
    ISING_ALPHABET,
    FusionChannelError,
    M,
    SIGMA,
    VAC,
    UnknownSectorError,
    abelian_c0,
    fuse,
    ising_like,
    monodromy_angle,
    phase_from_eighths,
    r_angle,
    validate_model,
)
from anyonmask.braid import BraidError, apply_ops, op_set
from anyonmask.qstate import ValidationReport, basis_state
from test_refusals import ABELIAN, ISING, refusals, refuse, whole

GOLDEN_DIR = Path(__file__).parent / "golden"

# the complete nontrivial exchange-phase table of the Abelian model,
# as pi/8 multiples (0 -> +1, 8 -> -1)
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

# the c=1 vortex table: R(ss;1) = e^{-i pi/8}, R(ss;eps) = e^{3 i pi/8},
# R(es;s) = R(se;s) = -i, R(ee;1) = -1
ISING_C1_R_TABLE = {
    (EPS, EPS, VAC): 8,
    (SIGMA, SIGMA, VAC): 15,
    (SIGMA, SIGMA, EPS): 3,
    (EPS, SIGMA, SIGMA): 12,
    (SIGMA, EPS, SIGMA): 12,
}

# (violation, model, field, key, value): one entry of one table changed, or the whole field if key is None
STRUCTURAL_VIOLATIONS = [
    ("self-inverse:e", "abelian", "fusion", (E, E), (M,)),
    ("abelian-theta:e", "abelian", "theta_eighths", E, 8),
    ("abelian-kappa:m", "abelian", "kappa", M, -1),
    ("theta-sigma", "ising", "theta_eighths", SIGMA, 3),
    ("kappa-sigma", "ising", "kappa", SIGMA, -1),
    ("unknown-kind:fibonacci", "ising", "kind", None, "fibonacci"),
    # the monodromy check read R(m, e; eps) and raised FusionChannelError
    ("fusion-commutativity:(e,m)", "abelian", "fusion", (M, E), (VAC,)),
]

# (violation, model, field, key): one entry dropped from one table, which no other check may then read
MISSING_ENTRIES = [
    ("r-missing:(sigma,sigma;eps)", "ising", "r_eighths", (SIGMA, SIGMA, EPS)),
    ("r-missing:(sigma,sigma;1)", "ising", "r_eighths", (SIGMA, SIGMA, VAC)),
    ("r-missing:(eps,sigma;sigma)", "ising", "r_eighths", (EPS, SIGMA, SIGMA)),
    ("r-missing:(m,e;eps)", "abelian", "r_eighths", (M, E, EPS)),
    ("fusion-missing:(sigma,eps)", "ising", "fusion", (SIGMA, EPS)),
    ("fusion-missing:(1,eps)", "ising", "fusion", (VAC, EPS)),
    ("fusion-missing:(eps,eps)", "ising", "fusion", (EPS, EPS)),
    ("fusion-missing:(e,m)", "abelian", "fusion", (E, M)),
    ("theta-missing:sigma", "ising", "theta_eighths", SIGMA),
    ("theta-missing:eps", "ising", "theta_eighths", EPS),
    ("theta-missing:e", "abelian", "theta_eighths", E),
    ("kappa-missing:sigma", "ising", "kappa", SIGMA),
    ("kappa-missing:m", "abelian", "kappa", M),
]

# (id, model, violations): an entry a check reads is foreign or absent; the first passed, the second passed and
# braided, and the third raised UnknownSectorError from inside validate_model
FOREIGN_OR_ABSENT = [
    ("abelian-without-eps", replace(ABELIAN, alphabet=(VAC, E, M)),
     ("fusion-foreign:(e,m;eps)", "fusion-foreign:(m,e;eps)")),
    ("ising-eps-sigma-to-zz",
     replace(ISING, fusion={**ISING.fusion, (EPS, SIGMA): ("zz",), (SIGMA, EPS): ("zz",)},
             r_eighths={**{k: v for k, v in ISING.r_eighths.items() if k[:2] not in [(EPS, SIGMA), (SIGMA, EPS)]},
                        (EPS, SIGMA, "zz"): 12, (SIGMA, EPS, "zz"): 12}),
     ("fusion-foreign:(eps,sigma;zz)", "fusion-foreign:(sigma,eps;zz)")),
    ("ising-without-sigma", replace(ISING, alphabet=(VAC, EPS)), ("sector-missing:sigma",)),
]

TABLES = ("fusion", "r_eighths", "theta_eighths", "kappa")
# out of 0..15, a float (nan and inf included), or no number at all
PHASES = st.one_of(st.integers(-16, 32), st.floats(), st.sampled_from((None, "4", 4j)))
# what an entry of each table may become: fusion channels dropped, foreign or wrong
ENTRY_VALUES = {
    "fusion": st.lists(st.sampled_from((*ABELIAN_ALPHABET, SIGMA, "zz")), max_size=3).map(tuple),
    "r_eighths": PHASES,
    "theta_eighths": PHASES,
    "kappa": st.sampled_from((1, -1, 0, 1.0, None)),
}


@st.composite
def derived_models(draw):
    """``abelian_c0()`` or ``ising_like(c)``, odd c, with up to three entries dropped or changed and its
    alphabet permuted or trimmed."""
    model = draw(st.sampled_from([abelian_c0(), *(ising_like(c) for c in range(1, 16, 2))]))
    tables = {name: dict(getattr(model, name)) for name in TABLES}
    entries = [(name, key) for name in TABLES for key in tables[name]]
    for name, key in draw(st.lists(st.sampled_from(entries), max_size=3)):
        if draw(st.booleans()):
            tables[name].pop(key, None)
        else:
            tables[name][key] = draw(ENTRY_VALUES[name])
    alphabet = draw(st.permutations(model.alphabet))
    return replace(model, alphabet=tuple(alphabet[:draw(st.integers(1, len(alphabet)))]), **tables)


class TestPhaseFromEighths:
    def test_quarter_multiples_are_exact(self):
        assert phase_from_eighths(0) == 1
        assert phase_from_eighths(4) == 1j
        assert phase_from_eighths(8) == -1
        assert phase_from_eighths(12) == -1j
        assert phase_from_eighths(-4) == -1j

    def test_mod_16_canonicalization(self):
        assert phase_from_eighths(17) == phase_from_eighths(1)
        assert phase_from_eighths(-1) == phase_from_eighths(15)

    @pytest.mark.parametrize("k", range(16))
    def test_unit_modulus(self, k):
        assert abs(abs(phase_from_eighths(k)) - 1.0) <= 1e-15

    def test_a_numpy_integer_runs_as_the_int_it_holds(self):
        assert phase_from_eighths(np.int64(-3)) == phase_from_eighths(13)

    # phase_from_eighths(2.5) returned exp(2.5 i pi / 8) and True ran as 1
    test_no_whole_number_of_eighths_is_refused = refusals(*(
        refuse(ValueError, rf"^eighths k must be an integer, got {re.escape(repr(k))}$", phase_from_eighths, k,
               id=repr(k))
        for k in [2.5, 4.0, True, np.True_, "4", None, 1j]
    ))


class TestFusion:
    def test_vortex_pair_fuses_to_fermion(self, abelian_model):
        assert tuple(fuse(abelian_model, E, M)) == (EPS,)

    def test_sigma_pair_splits(self, ising_model):
        assert tuple(fuse(ising_model, SIGMA, SIGMA)) == (VAC, EPS)

    @pytest.mark.parametrize("label", ABELIAN_ALPHABET)
    def test_vacuum_is_unit_abelian(self, abelian_model, label):
        assert tuple(fuse(abelian_model, VAC, label)) == (label,)

    @pytest.mark.parametrize("label", ISING_ALPHABET)
    def test_vacuum_is_unit_ising(self, ising_model, label):
        assert tuple(fuse(ising_model, VAC, label)) == (label,)

    @pytest.mark.parametrize("model_name", ["abelian", "ising"])
    def test_commutative_and_self_inverse(self, model_name, abelian_model, ising_model):
        model = abelian_model if model_name == "abelian" else ising_model
        for a in model.alphabet:
            for b in model.alphabet:
                assert sorted(fuse(model, a, b)) == sorted(fuse(model, b, a))
            assert VAC in fuse(model, a, a)

    @pytest.mark.parametrize("model_name", ["abelian", "ising"])
    def test_associativity_on_all_triples(self, model_name, abelian_model, ising_model):
        model = abelian_model if model_name == "abelian" else ising_model
        for a in model.alphabet:
            for b in model.alphabet:
                for c in model.alphabet:
                    left = [
                        x for ab in fuse(model, a, b) for x in fuse(model, ab, c)
                    ]
                    right = [
                        x for bc in fuse(model, b, c) for x in fuse(model, a, bc)
                    ]
                    assert sorted(left) == sorted(right)

    test_foreign_label_rejected = refusals(refuse(UnknownSectorError, None, fuse, ISING, E, SIGMA))


class TestRPhases:
    def test_abelian_table_complete_and_exact(self, abelian_model):
        for (a, b, ch), k in ABELIAN_R_TABLE.items():
            assert r_angle(abelian_model, a, b, ch) == k

    def test_vortex_exchange_asymmetry(self, abelian_model):
        assert r_angle(abelian_model, E, M, EPS) == 0
        assert r_angle(abelian_model, M, E, EPS) == 8

    def test_ising_c1_table_complete_and_exact(self, ising_model):
        for (a, b, ch), k in ISING_C1_R_TABLE.items():
            assert r_angle(ising_model, a, b, ch) == k
        assert phase_from_eighths(r_angle(ising_model, SIGMA, SIGMA, VAC)) == pytest.approx(
            cmath.exp(-1j * math.pi / 8), abs=1e-15
        )
        assert phase_from_eighths(r_angle(ising_model, SIGMA, SIGMA, EPS)) == pytest.approx(
            cmath.exp(3j * math.pi / 8), abs=1e-15
        )
        assert phase_from_eighths(r_angle(ising_model, EPS, SIGMA, SIGMA)) == -1j

    @pytest.mark.parametrize("model_name", ["abelian", "ising"])
    def test_vacuum_braiding_trivial(self, model_name, abelian_model, ising_model):
        model = abelian_model if model_name == "abelian" else ising_model
        for x in model.alphabet:
            assert r_angle(model, VAC, x, x) == 0
            assert r_angle(model, x, VAC, x) == 0

    @pytest.mark.parametrize("model_name", ["abelian", "ising"])
    def test_all_phases_unit_modulus(self, model_name, abelian_model, ising_model):
        model = abelian_model if model_name == "abelian" else ising_model
        for a in model.alphabet:
            for b in model.alphabet:
                for ch in fuse(model, a, b):
                    assert abs(abs(phase_from_eighths(r_angle(model, a, b, ch))) - 1.0) == 0.0

    test_bad_channel_rejected = refusals(refuse(FusionChannelError, None, r_angle, ABELIAN, E, M, VAC))


class TestMonodromy:
    def test_vortex_circling_is_minus_one(self, abelian_model):
        assert monodromy_angle(abelian_model, E, M, EPS) == 8

    def test_all_distinct_nontrivial_abelian_pairs(self, abelian_model):
        nontrivial = [x for x in ABELIAN_ALPHABET if x != VAC]
        for a in nontrivial:
            for b in nontrivial:
                if a == b:
                    continue
                ch = tuple(fuse(abelian_model, a, b))[0]
                assert monodromy_angle(abelian_model, a, b, ch) == 8

    def test_abelian_self_monodromy_trivial(self, abelian_model):
        for x in (E, M, EPS):
            assert monodromy_angle(abelian_model, x, x, VAC) == 0

    def test_sigma_pair_circling(self, ising_model):
        assert monodromy_angle(ising_model, SIGMA, SIGMA, VAC) == 14
        assert phase_from_eighths(monodromy_angle(ising_model, SIGMA, SIGMA, VAC)) == pytest.approx(
            cmath.exp(-1j * math.pi / 4), abs=1e-15
        )

    def test_sigma_around_fermion_is_minus_one(self, ising_model):
        assert monodromy_angle(ising_model, EPS, SIGMA, SIGMA) == 8

    @pytest.mark.parametrize("model_name", ["abelian", "ising"])
    def test_vacuum_monodromy_trivial(self, model_name, abelian_model, ising_model):
        model = abelian_model if model_name == "abelian" else ising_model
        for x in model.alphabet:
            assert monodromy_angle(model, VAC, x, x) == 0


class TestTopologicalData:
    def test_abelian_spins_and_indicators(self, abelian_model):
        for x in ABELIAN_ALPHABET:
            assert phase_from_eighths(abelian_model.theta_eighths[x]) == 1
            assert abelian_model.kappa[x] == 1

    def test_ising_c1_vortex_data(self, ising_model):
        assert phase_from_eighths(ising_model.theta_eighths[SIGMA]) == pytest.approx(
            cmath.exp(1j * math.pi / 8), abs=1e-15
        )
        assert ising_model.theta_eighths[SIGMA] == 1
        assert ising_model.kappa[SIGMA] == 1
        assert phase_from_eighths(ising_model.theta_eighths[VAC]) == 1
        assert phase_from_eighths(ising_model.theta_eighths[EPS]) == -1

    @pytest.mark.parametrize("c", [1, 3, 5, 7, 9, 11, 13, 15, -3, 17])
    def test_odd_c_parameterization(self, c):
        model = ising_like(c)
        cc = c % 16
        assert model.theta_eighths[SIGMA] == cc
        assert model.kappa[SIGMA] == (-1) ** (((cc * cc - 1) // 8) % 2)
        # the full sigma-pair circle is exp(-i pi c / 4) for every odd c
        assert monodromy_angle(model, SIGMA, SIGMA, VAC) == (-2 * cc) % 16

    @pytest.mark.parametrize("c, name", [(-1, "ising-c15"), (np.int64(3), "ising-c3"), (np.int8(-15), "ising-c1")])
    def test_a_signed_or_numpy_integer_reduces_mod_16(self, c, name):
        model = ising_like(c)
        assert model.name == name and type(model.c) is int

    test_even_c_rejected = refusals(refuse(ValueError, "odd", ising_like, 2))
    # ising_like(1.5) built "ising-c1.5", whose braids passed, and True ran as c = 1
    test_a_chern_number_that_is_no_integer_is_refused = refusals(*(
        refuse(ValueError, rf"^Chern number c must be an integer, got {re.escape(repr(c))}$", ising_like, c,
               id=repr(c))
        for c in [1.5, 1.0, True, np.True_, "1", None]
    ))


class TestKitaevRelations:
    """Every built-in Ising model against Kitaev's relations (cond-mat/0506438), as eighths mod 16."""

    @pytest.mark.parametrize("c", range(-15, 16, 2))
    def test_every_ising_model_obeys_them(self, c):
        model = ising_like(c)
        theta, kappa = model.theta_eighths, model.kappa
        # vacuum: R(1, x; x) = R(x, 1; x) = 1
        for x in ISING_ALPHABET:
            assert r_angle(model, VAC, x, x) == r_angle(model, x, VAC, x) == 0
        # ribbon: R(a, a; 1) = kappa_a theta_a* for the self-dual eps and sigma
        for a in (EPS, SIGMA):
            assert r_angle(model, a, a, VAC) == (-theta[a] + (0 if kappa[a] == 1 else 8)) % 16
        # hexagon: R(sigma, sigma; eps) / R(sigma, sigma; 1) = i^c and R(eps, sigma; sigma) = R(sigma, eps; sigma) = -i^c
        assert (r_angle(model, SIGMA, SIGMA, EPS) - r_angle(model, SIGMA, SIGMA, VAC)) % 16 == 4 * c % 16
        assert r_angle(model, EPS, SIGMA, SIGMA) == r_angle(model, SIGMA, EPS, SIGMA) == (8 + 4 * c) % 16


class TestValidateModel:
    def test_abelian_passes(self, abelian_model):
        report = validate_model(abelian_model)
        assert report.ok
        assert report.violations == ()

    def test_ising_passes(self, ising_model):
        report = validate_model(ising_model)
        assert report.ok

    def test_an_alphabet_trimmed_to_a_closed_subset_passes(self, abelian_model):
        assert validate_model(replace(abelian_model, alphabet=("1", "e"))).ok

    def test_corrupted_r_entry_detected(self, abelian_model):
        broken = replace(
            abelian_model,
            r_eighths={**abelian_model.r_eighths, (M, E, EPS): 0},
        )
        report = validate_model(broken)
        assert not report.ok
        assert any("abelian-distinct-monodromy:(e,m)" in v for v in report.violations)

    def test_corrupted_ising_monodromy_detected(self, ising_model):
        broken = replace(
            ising_model,
            r_eighths={**ising_model.r_eighths, (EPS, SIGMA, SIGMA): 0},
        )
        report = validate_model(broken)
        assert not report.ok
        assert "ising-eps-sigma-monodromy" in report.violations

    @pytest.mark.parametrize("k", [2.5, math.nan, math.inf, True, -1, 16], ids=repr)
    def test_a_phase_outside_canonical_eighths_is_named(self, ising_model, k):
        # |exp(i pi k / 8)| is 1 for any real k and a NaN compares false, so a modulus check passed all of these
        report = validate_model(replace(ising_model, r_eighths={**ising_model.r_eighths, (SIGMA, SIGMA, VAC): k}))
        assert not report.ok
        assert "r-eighths:(sigma,sigma;1)" in report.violations

    def test_a_spin_outside_canonical_eighths_is_named(self, ising_model):
        report = validate_model(replace(ising_model, theta_eighths={**ising_model.theta_eighths, EPS: 24}))
        assert not report.ok
        assert "theta-eighths:eps" in report.violations

    @pytest.mark.parametrize(
        "violation, kind, field, key, value", STRUCTURAL_VIOLATIONS, ids=[case[0] for case in STRUCTURAL_VIOLATIONS]
    )
    def test_each_structural_violation_is_named(self, violation, kind, field, key, value, abelian_model, ising_model):
        model = abelian_model if kind == "abelian" else ising_model
        table = value if key is None else {**getattr(model, field), key: value}
        report = validate_model(replace(model, **{field: table}))
        assert not report.ok
        assert violation in report.violations

    @pytest.mark.parametrize("violation, kind, field, key", MISSING_ENTRIES, ids=[case[0] for case in MISSING_ENTRIES])
    def test_each_missing_entry_is_named_alone(self, violation, kind, field, key, abelian_model, ising_model):
        # a missing R entry passed, and a missing pair, spin or indicator raised KeyError
        model = abelian_model if kind == "abelian" else ising_model
        table = {k: v for k, v in getattr(model, field).items() if k != key}
        report = validate_model(replace(model, **{field: table}))
        assert (report.ok, report.violations) == (False, (violation,))

    def test_float_tables_are_refused(self, ising_model):
        # every phase as a float (ising_like itself refuses a float Chern number)
        floats = replace(
            ising_model,
            r_eighths={key: float(k) for key, k in ising_model.r_eighths.items()},
            theta_eighths={key: float(k) for key, k in ising_model.theta_eighths.items()},
        )
        report = validate_model(floats)
        assert not report.ok
        assert "theta-eighths:sigma" in report.violations and "r-eighths:(sigma,sigma;1)" in report.violations

    @pytest.mark.parametrize("c", range(-15, 16, 2))
    def test_every_odd_chern_number_passes(self, c):
        report = validate_model(ising_like(c))
        assert report.ok and report.violations == ()

    def test_broken_fusion_unit_detected(self, ising_model):
        fusion = dict(ising_model.fusion)
        fusion[(VAC, EPS)] = (SIGMA,)
        report = validate_model(replace(ising_model, fusion=fusion))
        assert not report.ok
        assert "vacuum-unit:eps" in report.violations

    @pytest.mark.parametrize("model, violations", [case[1:] for case in FOREIGN_OR_ABSENT],
                             ids=[case[0] for case in FOREIGN_OR_ABSENT])
    def test_a_foreign_or_absent_entry_a_check_reads_is_named(self, model, violations):
        assert validate_model(model) == ValidationReport(ok=False, violations=violations)

    test_a_model_with_a_foreign_or_absent_entry_is_not_braided = refusals(*(
        refuse(BraidError, whole(f"model {model.name} is not valid: {', '.join(violations)}"),
               apply_ops, model, basis_state((VAC,) * 3), op_set(model.kind), id=name)
        for name, model, violations in FOREIGN_OR_ABSENT
    ))

    @given(model=derived_models(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_validation_returns_a_report_and_a_model_it_passes_braids(self, model, data):
        report = validate_model(model)
        assert isinstance(report, ValidationReport) and report.ok == (report.violations == ())
        if report.ok:
            labels = data.draw(st.tuples(*[st.sampled_from(model.alphabet)] * 3))
            for op in op_set(model.kind):
                with contextlib.suppress(BraidError):
                    apply_ops(model, basis_state(labels), (op,))


class TestReadOnlyTables:
    # a table changed after the model's first braid kept the op tables compiled from it, old phase and all
    test_a_table_refuses_item_assignment = refusals(*(
        refuse(TypeError, "does not support item assignment", operator.setitem, getattr(ising_like(1), name), key,
               value, id=name)
        for name, key, value in [("fusion", (EPS, EPS), (SIGMA,)), ("r_eighths", (SIGMA, SIGMA, VAC), 0),
                                 ("theta_eighths", SIGMA, 0), ("kappa", SIGMA, -1)]
    ))

    def test_a_table_is_a_copy_of_the_mapping_it_was_built_from(self):
        r_eighths = dict(ISING.r_eighths)
        model = replace(ISING, r_eighths=r_eighths)
        r_eighths[(SIGMA, SIGMA, VAC)] = 0
        assert model.r_eighths == ising_like(1).r_eighths


def read_golden_tables(path: Path) -> tuple[str, tuple[str, ...], dict[str, dict]]:
    """A golden table file read back: its header line, its alphabet, and its fuse, r, theta and kappa tables.

    One line per entry: ``fuse a b -> channels``, ``r a b channel eighths``,
    ``theta x eighths`` and ``kappa x +1|-1``; a repeated key fails.
    """
    header, alphabet, *entries = path.read_text().splitlines()
    tables: dict[str, dict] = {"fuse": {}, "r": {}, "theta": {}, "kappa": {}}
    for line in entries:
        table, *words = line.split()
        if table == "fuse":
            a, b, arrow, *channels = words
            assert arrow == "->", line
            key, value = (a, b), tuple(channels)
        elif table == "r":
            a, b, channel, eighths = words
            key, value = (a, b, channel), int(eighths)
        else:
            key, number = words
            value = int(number)
        assert key not in tables[table], line
        tables[table][key] = value
    label, *letters = alphabet.split()
    assert label == "alphabet", alphabet
    return header, tuple(letters), tables


class TestGoldenTables:
    @pytest.mark.parametrize("name", ["abelian_c0", "ising_c1"])
    def test_the_golden_file_reads_back_as_the_models_tables(self, name, abelian_model, ising_model):
        model = abelian_model if name == "abelian_c0" else ising_model
        header, alphabet, tables = read_golden_tables(GOLDEN_DIR / f"{name}.txt")
        assert header == f"model {model.name} kind={model.kind} c={model.c}"
        assert alphabet == model.alphabet
        assert tables == {"fuse": dict(model.fusion), "r": dict(model.r_eighths),
                          "theta": dict(model.theta_eighths), "kappa": dict(model.kappa)}
