"""Tripartite Latin-square masking: encoder, verifier, negative control.

The encoder maps a length-d coefficient vector onto a three-register
state (1/sqrt(d)) * sum_jk coeffs[j] |A[j][k], B[j][k], C[j][k]>.  When
every row of A is a permutation and B, C are mutually orthogonal Latin
squares, all three single-party marginals equal I/d for every input: the
information lives only in the correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .anyons import AnyonModel, abelian_c0, ising_like
from .latin import (
    SchemeTriple,
    Square,
    cyclic_triple,
    standard_squares_d4,
    validate_triple,
)
from .qstate import (
    TAGS,
    DensityMatrix,
    StateVector,
    check_seed,
    check_tol,
    dense_state,
    finite_coeffs,
    hs_distance,
    partial_trace,
    product_basis,
    unit_coeffs,
)
# random_unit_coeffs lives with the batch draws that must match it bit for
# bit; it stays importable from here because bench/tracer.py TARGETS wraps it
# as masker.random_unit_coeffs and bench/workloads.py calls it here.
from .trials import evaluate_trials, random_unit_coeffs  # noqa: F401

# a run's defaults where its caller names none, the same for the library and the command line
DEFAULT_TOL = 1e-12
DEFAULT_SEED = 7
DEFAULT_TRIALS = 100


@dataclass(frozen=True)
class MaskingScheme:
    """A validated (A, B, C) triple bound to a model alphabet."""

    model: AnyonModel
    triple: SchemeTriple

    def __post_init__(self) -> None:
        if self.triple.d != self.model.d:
            raise ValueError(
                f"triple order {self.triple.d} does not match the "
                f"{self.model.name} alphabet size {self.model.d}"
            )
        report = validate_triple(self.triple)
        if not report.ok:
            raise ValueError(f"invalid scheme triple: {', '.join(report.violations)}")

    @property
    def d(self) -> int:
        return self.model.d


# the built-in triples, by the names a scheme selector gives them
BUILTIN_TRIPLES = {"standard-d4": standard_squares_d4, "cyclic-d3": lambda: cyclic_triple(3)}


def default_triple_name(model: AnyonModel) -> str:
    """The built-in triple a model of this kind is masked with unless one is named."""
    return "standard-d4" if model.kind == "abelian" else "cyclic-d3"


def abelian_standard_scheme() -> MaskingScheme:
    return MaskingScheme(model=abelian_c0(), triple=standard_squares_d4())


def ising_cyclic_scheme(c: int = 1) -> MaskingScheme:
    return MaskingScheme(model=ising_like(c), triple=cyclic_triple(3))


@lru_cache(maxsize=64)
def _rows(squares: tuple[Square, ...]) -> np.ndarray:
    """Encoder rows over the registers the squares label, as rows[j, x1, ..., tag].

    Row j adds 1/sqrt(d) at (S1[j][k], S2[j][k], ..., untagged) in the
    dense layout of ``qstate.TAGS`` for every column k, so cells of one row
    that repeat a label tuple add up.  Built once per squares and shared,
    so read-only.
    """
    d = squares[0].d
    cells = [np.array(square.cells).reshape(-1) for square in squares]
    rows = np.zeros((d,) * (len(squares) + 1) + (len(TAGS),), dtype=complex)
    np.add.at(rows, (np.repeat(np.arange(d), d), *cells, TAGS.index(None)), 1.0 / math.sqrt(d))
    rows.setflags(write=False)
    return rows


def encoder_rows(scheme: MaskingScheme) -> np.ndarray:
    """All d encoder rows as one dense, read-only array rows[j, a, b, c, tag]:
    1/sqrt(d) at (A[j][k], B[j][k], C[j][k], untagged) for every column k."""
    return _rows((scheme.triple.a, scheme.triple.b, scheme.triple.c))


def _combined(rows: np.ndarray, coeffs: np.ndarray, alphabet: Sequence[str]) -> StateVector:
    """The state sum_j coeffs[j] rows[j]."""
    return dense_state((coeffs @ rows.reshape(len(coeffs), -1)).reshape(rows.shape[1:]), alphabet)


def encode(scheme: MaskingScheme, coeffs: Sequence[complex]) -> StateVector:
    """Encode a unit coefficient vector; the result has norm 1."""
    coeffs = unit_coeffs(coeffs, scheme.d)
    return _combined(encoder_rows(scheme), coeffs, scheme.model.alphabet)


@dataclass(frozen=True)
class MaskingReport:
    """Per-party reduced states with their distances from I/d."""

    marginals: tuple[DensityMatrix, ...]
    deviations: tuple[float, ...]
    tol: float
    verdict: bool

    @property
    def worst_deviation(self) -> float:
        return float(np.max(self.deviations))


@lru_cache(maxsize=None)
def _maximally_mixed(alphabet: tuple[str, ...]) -> tuple[tuple, DensityMatrix]:
    """The one-register basis and I/d over it, built once per alphabet.

    A ``DensityMatrix``'s entries are read-only, so every caller can share it.
    """
    basis = product_basis(alphabet, 1)
    return basis, DensityMatrix.maximally_mixed(basis)


def verify_masking(
    state: StateVector,
    alphabet: Sequence[str],
    tol: float = DEFAULT_TOL,
) -> MaskingReport:
    """Check that each single-party marginal of a 3-register state is I/d."""
    check_tol(tol)
    if state.n_registers != 3:
        raise ValueError(f"masking verification needs 3 registers, got {state.n_registers}")
    basis, target = _maximally_mixed(tuple(alphabet))
    marginals = tuple(partial_trace(state, {party}, basis) for party in range(3))
    deviations = tuple(hs_distance(rho, target) for rho in marginals)
    return MaskingReport(
        marginals=marginals,
        deviations=deviations,
        tol=tol,
        verdict=all(dev <= tol for dev in deviations),
    )


@dataclass(frozen=True)
class MaskingCampaignResult:
    trials: int
    seed: int
    tol: float
    worst_deviation: float
    per_party_worst: tuple[float, ...]
    failed_trials: int
    verdict: bool

    def record(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "worst_deviation": self.worst_deviation,
            "per_party_worst": list(self.per_party_worst),
            "failed_trials": self.failed_trials,
            "verdict": "pass" if self.verdict else "fail",
        }


def run_masking_campaign(
    scheme: MaskingScheme,
    trials: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> MaskingCampaignResult:
    """Check the marginals of `trials` seeded random unit inputs against I/d.

    The encoder is linear, so every trial is a combination of the d
    encoder rows (``encoder_rows``, one dense array): the rows are reduced
    once per party and every trial is evaluated from them in batches
    (``evaluate_trials``), drawing the same coefficients as successive
    ``random_unit_coeffs`` calls.  The first
    worst trial is replayed through ``encode`` and ``verify_masking``, and
    the campaign passes iff no trial failed and that replay passes too.
    """
    check_tol(tol)
    seed = check_seed(seed)
    trials = check_seed(trials, "trials", positive=True)
    batch = evaluate_trials(encoder_rows(scheme), trials, seed, tol)
    replay = verify_masking(encode(scheme, batch.worst_coeffs), scheme.model.alphabet, tol=tol)
    return MaskingCampaignResult(
        trials=trials,
        seed=seed,
        tol=tol,
        worst_deviation=batch.worst_deviation,
        per_party_worst=batch.per_party_worst,
        failed_trials=batch.failed_trials,
        verdict=batch.failed_trials == 0 and replay.verdict,
    )


def bipartite_encode(triple: SchemeTriple, alphabet: Sequence[str], coeffs: Sequence[complex]) -> StateVector:
    """Two-register analog |j> -> (1/sqrt(d)) sum_k |B[j][k], C[j][k]>."""
    coeffs = finite_coeffs(coeffs, triple.d)
    return _combined(_rows((triple.b, triple.c)), coeffs, alphabet)


@dataclass(frozen=True)
class BipartiteControlReport:
    """Witness that two-register encoding leaks input information."""

    max_distance: float
    witness: tuple[str, str, int]  # probe, probe, party


def _control_probes(d: int) -> list[tuple[str, np.ndarray]]:
    probes = [(f"basis-{j}", vec) for j, vec in enumerate(np.eye(d, dtype=complex))]
    uniform = np.ones(d, dtype=complex) / math.sqrt(d)
    probes.append(("uniform", uniform))
    phased = np.array([1j**j for j in range(d)], dtype=complex) / math.sqrt(d)
    probes.append(("uniform-i", phased))
    return probes


def bipartite_control(model: AnyonModel, triple: Optional[SchemeTriple] = None) -> BipartiteControlReport:
    """Show that the two-register encoder cannot mask: some probes' marginals differ.

    The probe set is fixed (the d basis inputs plus uniform superpositions
    with phases 1 and i) so the counterexample is deterministic.
    """
    if triple is None:
        triple = BUILTIN_TRIPLES[default_triple_name(model)]()
    MaskingScheme(model, triple)  # the triple's order and validity, by the encoder's one rule
    alphabet = model.alphabet
    basis = product_basis(alphabet, 1)
    probes = _control_probes(model.d)
    marginals = {
        name: tuple(partial_trace(bipartite_encode(triple, alphabet, vec), {p}, basis) for p in (0, 1))
        for name, vec in probes
    }
    best = 0.0
    witness = (probes[0][0], probes[0][0], 0)
    names = [name for name, _ in probes]
    for i, name_a in enumerate(names):
        for name_b in names[i:]:
            for party in (0, 1):
                dist = hs_distance(marginals[name_a][party], marginals[name_b][party])
                if dist > best:
                    best = dist
                    witness = (name_a, name_b, party)
    return BipartiteControlReport(
        max_distance=best,
        witness=witness,
    )
