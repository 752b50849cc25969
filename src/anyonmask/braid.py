"""Braiding operators on encoded tripartite states.

Three operations are provided: pairwise exchange of adjacent parties,
full circling of one party around another, and the Ising tripartite
braid that splits the all-sigma component into tagged fusion branches.
All are pure maps from state to state, and all preserve the norm.

A sigma-sigma exchange has no unique fusion channel.  A term that
already carries a channel tag braids in that channel; an untagged term
either splits into two equal-weight tagged branches (mode ``"split"``)
or is pushed into one chosen channel (mode ``"1"`` or ``"eps"``).  Both
conventions leave the masking marginals untouched.

Braid sequences parse from compact op strings such as ``"xBC;cBA;t3"``
(exchange B and C, circle B around A, tripartite braid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .anyons import (
    EPS,
    SIGMA,
    VAC,
    AnyonModel,
    fuse,
    monodromy_angle,
    phase_from_eighths,
    r_angle,
)
from .masker import MaskingReport, MaskingScheme, encode, encode_basis, verify_masking
from .qstate import BasisKet, StateVector, check_tol
from .trials import evaluate_trials

EXCHANGE = "exchange"
CIRCLE = "circle"
TRIPARTITE = "tripartite"

SPLIT = "split"
CHANNEL_MODES = (SPLIT, VAC, EPS)

_PARTY_NAMES = "ABC"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BraidError(ValueError):
    """An operation was applied outside its domain."""


class ChannelConflictError(BraidError):
    """A resolved channel mode contradicts a term's existing tag."""


@dataclass(frozen=True)
class BraidOp:
    kind: str
    x: Optional[int] = None
    y: Optional[int] = None
    mode: str = SPLIT

    def token(self) -> str:
        if self.kind == EXCHANGE:
            return f"x{_PARTY_NAMES[self.x]}{_PARTY_NAMES[self.y]}"
        if self.kind == CIRCLE:
            return f"c{_PARTY_NAMES[self.x]}{_PARTY_NAMES[self.y]}"
        return "t3"


def parse_ops(text: str) -> tuple[BraidOp, ...]:
    """Parse an op string like "xBC;cBA;t3" into a BraidOp sequence."""
    ops: list[BraidOp] = []
    for raw in text.split(";"):
        token = raw.strip()
        if not token:
            continue
        if token == "t3":
            ops.append(BraidOp(kind=TRIPARTITE))
            continue
        if len(token) == 3 and token[0] in "xc":
            try:
                x = _PARTY_NAMES.index(token[1])
                y = _PARTY_NAMES.index(token[2])
            except ValueError:
                raise BraidError(f"unknown party letter in op token {token!r}") from None
            kind = EXCHANGE if token[0] == "x" else CIRCLE
            ops.append(BraidOp(kind=kind, x=x, y=y))
            continue
        raise BraidError(f"unknown op token {token!r}")
    if not ops:
        raise BraidError("empty op string")
    return tuple(ops)


def _sigma_pair_phases(model: AnyonModel) -> tuple[int, int]:
    return r_angle(model, SIGMA, SIGMA, VAC), r_angle(model, SIGMA, SIGMA, EPS)


def exchange(
    model: AnyonModel,
    state: StateVector,
    x: int,
    y: int,
    mode: str = SPLIT,
) -> StateVector:
    """Counterclockwise exchange of two adjacent parties.

    Per basis term the labels at x and y swap and the amplitude picks up
    the exchange phase of (left label, right label) in the fusion
    channel.  Adjacency mirrors the physical braiding of neighboring
    strands; a non-adjacent exchange must be composed from these.
    """
    n = state.n_registers
    if not (0 <= x < n and 0 <= y < n):
        raise BraidError(f"party indices ({x}, {y}) out of range for {n} registers")
    if abs(x - y) != 1:
        raise BraidError(f"exchange requires adjacent parties, got ({x}, {y})")
    if mode not in CHANNEL_MODES:
        raise BraidError(f"channel mode must be one of {CHANNEL_MODES}, got {mode!r}")
    lo, hi = min(x, y), max(x, y)
    out: dict[BasisKet, complex] = {}

    def put(ket: BasisKet, amp: complex) -> None:
        out[ket] = out.get(ket, 0j) + amp

    for ket, amp in state.items():
        a, b = ket.labels[lo], ket.labels[hi]
        swapped = list(ket.labels)
        swapped[lo], swapped[hi] = b, a
        labels = tuple(swapped)
        channels = fuse(model, a, b)
        if not channels.is_split:
            phase = phase_from_eighths(r_angle(model, a, b, channels.channels[0]))
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
                put(BasisKet(labels, channel), amp * phase * _INV_SQRT2)
        else:
            phase = phase_from_eighths(r_angle(model, a, b, mode))
            put(BasisKet(labels, mode), amp * phase)
    return StateVector(out)


def circle(model: AnyonModel, state: StateVector, x: int, y: int) -> StateVector:
    """One full counterclockwise circle of party x around party y.

    Labels stay put; each term is multiplied by the circling phase of its
    label pair.  For almost every pair this is the monodromy (both
    exchange orders multiplied).  The Ising model carries two special
    cases: a fermion pair picks up -1, and an untagged sigma pair circles
    in the vacuum channel, its labels staying fixed because the
    accompanying fermion exchange acts trivially on sigma
    (eps x sigma = sigma).
    """
    n = state.n_registers
    if not (0 <= x < n and 0 <= y < n):
        raise BraidError(f"party indices ({x}, {y}) out of range for {n} registers")
    if x == y:
        raise BraidError("cannot circle a party around itself")
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.items():
        a, b = ket.labels[x], ket.labels[y]
        channels = fuse(model, a, b)
        if channels.is_split:
            channel = ket.tag if ket.tag is not None else VAC
            angle = monodromy_angle(model, a, b, channel)
        elif model.kind == "ising" and a == EPS and b == EPS:
            angle = 8
        else:
            angle = monodromy_angle(model, a, b, channels.channels[0])
        out[ket] = out.get(ket, 0j) + amp * phase_from_eighths(angle)
    return StateVector(out)


def tripartite_braid(model: AnyonModel, state: StateVector) -> StateVector:
    """The three-strand Ising braid with fusion-channel splitting.

    Terms without a sigma pair pick up the product of single-exchange
    phases over the three party pairs.  An untagged all-sigma term splits
    into vacuum and fermion branches with amplitudes
    kappa * R1^2 / sqrt(2) and kappa * R1 * Reps / sqrt(2); a tagged
    all-sigma term evolves inside its channel with kappa * R1 * Rtag.
    """
    if model.kind != "ising":
        raise BraidError("the tripartite braid is defined only for Ising-type models")
    if state.n_registers != 3:
        raise BraidError(f"the tripartite braid needs 3 registers, got {state.n_registers}")
    r1, reps = _sigma_pair_phases(model)
    kappa_shift = 0 if model.kappa[SIGMA] == 1 else 8
    out: dict[BasisKet, complex] = {}

    def put(ket: BasisKet, amp: complex) -> None:
        out[ket] = out.get(ket, 0j) + amp

    for ket, amp in state.items():
        labels = ket.labels
        sigma_count = sum(1 for lab in labels if lab == SIGMA)
        if sigma_count == 3:
            if ket.tag is None:
                put(BasisKet(labels, VAC), amp * phase_from_eighths(kappa_shift + 2 * r1) * _INV_SQRT2)
                put(BasisKet(labels, EPS), amp * phase_from_eighths(kappa_shift + r1 + reps) * _INV_SQRT2)
            else:
                rtag = r1 if ket.tag == VAC else reps
                put(BasisKet(labels, ket.tag), amp * phase_from_eighths(kappa_shift + r1 + rtag))
            continue
        pairs = ((labels[0], labels[1]), (labels[0], labels[2]), (labels[1], labels[2]))
        plain = [pair for pair in pairs if pair != (SIGMA, SIGMA)]
        angle = 0
        for a, b in plain:
            angle += r_angle(model, a, b, fuse(model, a, b).channels[0])
        if sigma_count < 2:
            put(BasisKet(labels, ket.tag), amp * phase_from_eighths(angle))
        elif ket.tag is not None:
            rtag = r1 if ket.tag == VAC else reps
            put(BasisKet(labels, ket.tag), amp * phase_from_eighths(angle + rtag))
        else:
            put(BasisKet(labels, VAC), amp * phase_from_eighths(angle + r1) * _INV_SQRT2)
            put(BasisKet(labels, EPS), amp * phase_from_eighths(angle + reps) * _INV_SQRT2)
    return StateVector(out)


def op_set(kind: str) -> tuple[BraidOp, ...]:
    """The single ops of the exhaustive sweep: both adjacent exchanges, all
    three circles, and, for the Ising model, the tripartite braid."""
    ops = (
        BraidOp(kind=EXCHANGE, x=0, y=1),
        BraidOp(kind=EXCHANGE, x=1, y=2),
        BraidOp(kind=CIRCLE, x=0, y=1),
        BraidOp(kind=CIRCLE, x=0, y=2),
        BraidOp(kind=CIRCLE, x=1, y=2),
    )
    return ops + (BraidOp(kind=TRIPARTITE),) if kind == "ising" else ops


def apply_op(model: AnyonModel, state: StateVector, op: BraidOp) -> StateVector:
    if op.kind == EXCHANGE:
        return exchange(model, state, op.x, op.y, op.mode)
    if op.kind == CIRCLE:
        return circle(model, state, op.x, op.y)
    if op.kind == TRIPARTITE:
        return tripartite_braid(model, state)
    raise BraidError(f"unknown op kind {op.kind!r}")


def apply_ops(model: AnyonModel, state: StateVector, ops: Sequence[BraidOp]) -> StateVector:
    for op in ops:
        state = apply_op(model, state, op)
    return state


UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BraidReport:
    """Outcome of a braid-invariance campaign over seeded random inputs."""

    ops: tuple[BraidOp, ...]
    trials: int
    seed: int
    tol: float
    worst_deviation: float
    unitarity_defect: float
    verdict: bool
    pre_report: MaskingReport
    post_report: MaskingReport

    def record(self) -> dict:
        return {
            "ops": ";".join(op.token() for op in self.ops),
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "worst_deviation": self.worst_deviation,
            "unitarity_defect": self.unitarity_defect,
            "verdict": "pass" if self.verdict else "fail",
        }


def verify_invariance(
    scheme: MaskingScheme,
    ops: Sequence[BraidOp],
    trials: int = 100,
    tol: float = 2e-12,
    seed: int = 0,
) -> BraidReport:
    """Encode seeded random inputs, braid them, and re-verify the masking.

    The verdict passes iff every braided trial's marginals stay within
    ``tol`` of I/d and the norm never drifts past the unitarity bound.
    Every op is linear, so the d encoder rows are braided once and the
    trials run as one batch over them (``evaluate_trials``).  The worst
    trial is replayed through ``encode`` and ``apply_ops`` for the pre- and
    post-braid reports, and both must pass too.
    """
    check_tol(tol)
    ops = tuple(ops)
    model = scheme.model
    alphabet = model.alphabet
    braided = [apply_ops(model, encode_basis(scheme, j), ops) for j in range(scheme.d)]
    batch = evaluate_trials(braided, alphabet, trials, seed, tol)
    pre_state = encode(scheme, batch.worst_coeffs)
    pre_report = verify_masking(pre_state, alphabet, tol=tol, seed=seed)
    post_report = verify_masking(apply_ops(model, pre_state, ops), alphabet, tol=tol, seed=seed)
    return BraidReport(
        ops=ops,
        trials=trials,
        seed=seed,
        tol=tol,
        worst_deviation=batch.worst_deviation,
        unitarity_defect=batch.norm_defect,
        verdict=(
            batch.failed_trials == 0
            and batch.norm_defect <= UNITARITY_TOL
            and pre_report.verdict
            and post_report.verdict
        ),
        pre_report=pre_report,
        post_report=post_report,
    )
