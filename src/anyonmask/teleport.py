"""Teleportation-style masking in the three-sector Ising alphabet.

Alice holds a payload particle (register 0) and one half of a maximally
entangled channel (register 1); Bob holds the other half (register 2).
A cyclic-permutation encoding rewrites the joint state so that Alice's
pair is supported entirely on three mutually orthogonal phase-pattern
states built from the cube root of unity.  Projecting onto any of them
succeeds with probability exactly 1/3 and leaves Bob a phase-twisted
copy of the payload, fixed up by a diagonal correction.

After the encoding both of Alice's registers are maximally mixed for
every input, so the payload lives only in the correlations until the
measurement outcome is announced.  The encoding is the Latin-square encoder
of (constant-row, backward cyclic, constant-column): Alice's squares have
permutation rows and the other two squares orthogonal; Bob's has constant
rows, so his held register keeps the input populations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anyons import ISING_ALPHABET
from .masker import DEFAULT_TOL, verify_masking
from .qstate import (
    BasisKet,
    StateVector,
    check_seed,
    check_tol,
    inner,
    tensor,
    unit_coeffs,
)

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)

_OMEGA_POWERS = (complex(1.0, 0.0), OMEGA, OMEGA.conjugate())

# the 39 untagged Ising kets of 1 to 3 registers by sector indices, and back
_KETS = {
    sectors: BasisKet(tuple(ISING_ALPHABET[i] for i in sectors))
    for n in (1, 2, 3)
    for sectors in itertools.product(range(3), repeat=n)
}
_KET_SECTORS = {ket: sectors for sectors, ket in _KETS.items()}


def _sectors(state: StateVector, n: int, what: str) -> list[tuple[tuple[int, ...], complex]]:
    """(sector indices, amplitude) of each ket of an untagged n-register state, in its order."""
    if state.n_registers != n:
        raise ValueError(f"{what} needs {n} register{'s' * (n > 1)}, got {state.n_registers}")
    if state.tagged:
        raise ValueError(f"{what} is defined for untagged states")
    read = []
    for ket, amp in state.items():
        sectors = _KET_SECTORS.get(ket)
        if sectors is None:
            label = next(label for label in ket.labels if label not in ISING_ALPHABET)
            raise ValueError(f"label {label!r} is not in the Ising alphabet {ISING_ALPHABET}")
        read.append((sectors, amp))
    return read


def _check_outcome(outcome: int) -> None:
    if check_seed(outcome, "outcome", positive=True) > 3:
        raise ValueError(f"outcome must be 1, 2, or 3, got {outcome}")


def omega_power(k: int) -> complex:
    """omega^k for omega = exp(2*pi*i/3)."""
    return _OMEGA_POWERS[k % 3]


def _pattern(i: int, x: int, y: int) -> complex:
    """The amplitude omega^((i-1)(y-x)) of phase-pattern state i on Alice's pair |x, y>."""
    return omega_power((i - 1) * (y - x))


def payload_state(coeffs: Sequence[complex]) -> StateVector:
    """The single-register state alpha|1> + beta|eps> + gamma|sigma>."""
    coeffs = unit_coeffs(coeffs, 3)
    return StateVector({_KETS[(i,)]: coeffs[i] for i in range(3)})


def build_channel() -> StateVector:
    """The shared channel (|11> + |eps eps> + |sigma sigma>) / sqrt(3)."""
    amp = 1.0 / math.sqrt(3.0)
    return StateVector({_KETS[i, i]: amp for i in range(3)})


def build_joint(coeffs: Sequence[complex]) -> StateVector:
    """Payload on register 0 tensored with the channel on registers 1, 2."""
    return tensor(payload_state(coeffs), build_channel())


def permutation_encode(state: StateVector) -> StateVector:
    """Cyclic-permutation encoding of a 3-register state.

    Basis kets map as |x, y, z> -> |z, y + x, x> (sector indices mod 3):
    register 1 advances by the payload sector and the payload swaps onto
    Bob's slot.  This is a permutation of basis kets, hence unitary, and
    each amplitude moves untouched.  On a joint payload-plus-channel state
    it leaves Alice's pair supported on the three phase-pattern states and
    maximally mixed registerwise.
    """
    return StateVector(
        {_KETS[z, (y + x) % 3, x]: amp for (x, y, z), amp in _sectors(state, 3, "encoding")}
    )


def alice_projector_states() -> tuple[StateVector, StateVector, StateVector]:
    """The three phase-pattern states on Alice's pair (unnormalized, norm 3).

    State i has amplitude omega^((i-1)(y-x)) on |x, y>; they are pairwise
    orthogonal because the omega powers sum to zero.
    """
    return tuple(
        StateVector({_KETS[x, y]: _pattern(i, x, y) for x in range(3) for y in range(3)})
        for i in (1, 2, 3)
    )


def alice_measure(encoded: StateVector, outcome: int) -> tuple[float, StateVector]:
    """Project registers 0, 1 onto the normalized phase-pattern state.

    Returns the outcome probability and Bob's normalized conditional
    state on register 2.
    """
    _check_outcome(outcome)
    bob = np.zeros(3, dtype=complex)
    for (x, y, z), amp in _sectors(encoded, 3, "measurement"):
        # conjugate of the projector amplitude on Alice's pair, over its norm 3
        bob[z] += _pattern(outcome, x, y).conjugate() * amp / 3.0
    probability = float(np.sum(np.abs(bob) ** 2))
    if probability < 1e-15:
        raise ValueError(f"outcome {outcome} has zero probability on this state")
    bob /= math.sqrt(probability)
    return probability, StateVector({_KETS[(z,)]: bob[z] for z in range(3)})


def correct(bob_state: StateVector, outcome: int) -> StateVector:
    """Bob's diagonal fix-up: multiply sector k by omega^((outcome-1)k)."""
    _check_outcome(outcome)
    return StateVector(
        {
            _KETS[(k,)]: amp * omega_power((outcome - 1) * k)
            for (k,), amp in _sectors(bob_state, 1, "correction")
        }
    )


@dataclass(frozen=True)
class TeleportOutcome:
    outcome: int
    probability: float
    bob_state: StateVector
    corrected_state: StateVector
    fidelity: float

    def record(self) -> dict:
        return {
            "outcome": self.outcome,
            "probability": self.probability,
            "fidelity": self.fidelity,
            "correction": ("identity", "diag(1,w,w2)", "diag(1,w2,w)")[self.outcome - 1],
        }


@dataclass(frozen=True)
class TeleportRun:
    """Full pipeline record: channel, encoding, all three outcomes."""

    coeffs: tuple[complex, ...]
    joint: StateVector
    encoded: StateVector
    outcomes: tuple[TeleportOutcome, ...]
    probability_sum: float
    alice_marginal_deviations: tuple[float, float]
    held_marginal_deviation: float
    tol: float
    verdict: bool

    def record(self) -> dict:
        return {
            "input": [[z.real, z.imag] for z in self.coeffs],
            "outcomes": [o.record() for o in self.outcomes],
            "probability_sum": self.probability_sum,
            "alice_marginal_deviations": list(self.alice_marginal_deviations),
            "held_marginal_deviation_info": self.held_marginal_deviation,
            "tol": self.tol,
            "verdict": "pass" if self.verdict else "fail",
        }


def run_teleport(coeffs: Sequence[complex], tol: float = DEFAULT_TOL) -> TeleportRun:
    """Run the whole protocol and check its invariants.

    Gated checks: the three outcome probabilities are each 1/3, they sum
    to one, every post-correction fidelity to the payload is 1, and
    ``verify_masking`` finds Alice's two registers maximally mixed before
    the measurement.  Bob's pre-measurement marginal carries the input
    populations; its distance from I/3 is reported for information only.
    """
    check_tol(tol)
    coeffs = unit_coeffs(coeffs, 3)
    joint = build_joint(coeffs)
    encoded = permutation_encode(joint)
    payload = payload_state(coeffs)

    deviations = verify_masking(encoded, ISING_ALPHABET, tol=tol).deviations
    alice_devs, held_dev = deviations[:2], deviations[2]

    outcomes = []
    for i in (1, 2, 3):
        probability, bob = alice_measure(encoded, i)
        corrected = correct(bob, i)
        fidelity = abs(inner(payload, corrected)) ** 2
        outcomes.append(
            TeleportOutcome(
                outcome=i,
                probability=probability,
                bob_state=bob,
                corrected_state=corrected,
                fidelity=fidelity,
            )
        )
    probability_sum = sum(o.probability for o in outcomes)
    verdict = (
        abs(probability_sum - 1.0) <= tol
        and all(abs(o.probability - 1.0 / 3.0) <= tol for o in outcomes)
        and all(abs(o.fidelity - 1.0) <= tol for o in outcomes)
        and max(alice_devs) <= tol
    )
    return TeleportRun(
        coeffs=tuple(complex(z) for z in coeffs),
        joint=joint,
        encoded=encoded,
        outcomes=tuple(outcomes),
        probability_sum=probability_sum,
        alice_marginal_deviations=alice_devs,
        held_marginal_deviation=held_dev,
        tol=tol,
        verdict=verdict,
    )
