"""Braiding operators on encoded tripartite states.

Three operations are provided: pairwise exchange of adjacent parties,
full circling of one party around another, and the Ising tripartite
braid that splits the all-sigma component into tagged fusion branches.
All are pure maps from state to state, and all preserve the norm of
encoded states.

A sigma-sigma exchange has no unique fusion channel.  A term that
already carries a channel tag braids in that channel; an untagged term
either splits into two equal-weight tagged branches (mode ``"split"``)
or is pushed into one chosen channel (mode ``"1"`` or ``"eps"``).  Both
conventions leave the masking marginals untouched.

Each op is defined by a per-ket rule, and it sends every tagged basis
ket (register labels times a channel tag from ``qstate.TAGS``) to at
most two kets, each as a phase in eighths of pi and whether it carries
the 1/sqrt(2) of a channel split, or to none on a channel conflict.
That map depends only on the model, so each op is compiled once per
model content and register count, by running its rule on every one of
the 3 d^n tagged kets, into a float gather table over the tagged basis
(the dense layout of ``qstate``), conflicts included: under 1 ms per op
at 3 registers, 0.2-0.3 s at the largest layout (2-vCPU x86-64 VM).
``apply_ops`` and ``verify_invariance`` (on the d encoder rows) compose
these gathers exactly: a labeled result is pruned once, as a
``StateVector`` prunes, and a conflict is an amplitude above
``PRUNE_EPS`` on a conflicting ket, as a labeled state would judge it.

Braid sequences are op strings such as ``"xBC:eps;cBA;t3"`` (exchange B
and C in the fermion channel, circle B around A, tripartite braid), in
the one grammar that ``BraidOp.token`` writes and ``parse_ops`` reads.
"""

from __future__ import annotations

import math
import re
import string
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anyons import (
    EPS,
    SIGMA,
    VAC,
    AnyonModel,
    FusionChannelError,
    fuse,
    monodromy_angle,
    phase_from_eighths,
    r_angle,
    validate_model,
)
from .masker import (
    DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, MaskingReport, MaskingScheme, _combined, encode, encoder_rows,
    verify_masking,
)
from .qstate import PRUNE_EPS, TAGS, BasisKet, StateVector, check_seed, check_tol, dense_state, tagged_basis
from .trials import evaluate_trials

EXCHANGE = "exchange"
CIRCLE = "circle"
TRIPARTITE = "tripartite"

SPLIT = "split"
CHANNEL_MODES = (SPLIT, VAC, EPS)

_PARTY_LETTERS = string.ascii_uppercase  # the parties a token names
_KIND_NAMES = {EXCHANGE: "x", CIRCLE: "c", TRIPARTITE: "t3"}  # how a token names each kind
_KINDS = {name: kind for kind, name in _KIND_NAMES.items()}
# The op grammar: the kind's name, the parties' letters, then ":1" or ":eps" on a resolved exchange
_TOKEN = re.compile(rf"({'|'.join(_KINDS)})([{_PARTY_LETTERS}]{{2}})?(?::({VAC}|{EPS}))?")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The largest tagged basis ``apply_ops`` lays out; it and its tables grow as 3 d^n (10 Abelian registers: 1.6 GB)
MAX_TAGGED_KETS = 2**16


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

    def __post_init__(self) -> None:
        if self.kind not in (EXCHANGE, CIRCLE, TRIPARTITE):
            raise BraidError(f"unknown op kind {self.kind!r}")
        if self.mode not in CHANNEL_MODES:
            raise BraidError(f"channel mode must be one of {CHANNEL_MODES}, got {self.mode!r}")
        if self.kind != EXCHANGE and self.mode != SPLIT:
            raise BraidError(f"only an exchange takes a channel mode, got {self.kind} with mode {self.mode!r}")
        # the register range depends on the register count, checked on use
        if self.kind == TRIPARTITE:
            if self.x is not None or self.y is not None:
                raise BraidError(f"the tripartite braid takes no parties, got x={self.x!r}, y={self.y!r}")
            return
        try:
            x, y = check_seed(self.x, "x"), check_seed(self.y, "y")
        except ValueError as exc:
            raise BraidError(f"{self.kind} needs integer parties x and y, got x={self.x!r}, y={self.y!r}") from exc
        if self.kind == EXCHANGE and abs(x - y) != 1:
            raise BraidError(f"exchange requires adjacent parties, got ({x}, {y})")
        if self.kind == CIRCLE and x == y:
            raise BraidError("cannot circle a party around itself")
        if max(x, y) >= len(_PARTY_LETTERS):
            raise BraidError(f"parties must be below {len(_PARTY_LETTERS)} to have a letter, got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def token(self) -> str:
        """The op in the grammar of ``parse_ops``, which reads it back as this op."""
        parties = "" if self.kind == TRIPARTITE else _PARTY_LETTERS[self.x] + _PARTY_LETTERS[self.y]
        return _KIND_NAMES[self.kind] + parties + ("" if self.mode == SPLIT else ":" + self.mode)


def parse_ops(text: str) -> tuple[BraidOp, ...]:
    """Parse an op string like "xBC;cBA:eps;t3" into a BraidOp sequence.

    Each ``;``-separated token, stripped, is read by ``_TOKEN``, the
    grammar ``BraidOp.token`` writes, so ``parse_ops(op.token()) == (op,)``;
    whether the token names an op is left to ``BraidOp``.
    """
    if not isinstance(text, str):
        raise BraidError(f"an op string must be a str, got {text!r}")
    ops: list[BraidOp] = []
    for token in filter(None, map(str.strip, text.split(";"))):
        match = _TOKEN.fullmatch(token)
        if match is None:
            raise BraidError(f"unknown op token {token!r}")
        name, parties, mode = match.groups()
        ops.append(BraidOp(_KINDS[name], *map(_PARTY_LETTERS.index, parties or ""), mode=mode or SPLIT))
    if not ops:
        raise BraidError("empty op string")
    return tuple(ops)


# -- per-ket rules: what one op does to one tagged basis ket ----------------

# Each image term is exact: the output ket, its phase in eighths of pi, and
# whether it carries the 1/sqrt(2) of a channel split; None is a channel conflict.
_Image = Optional[list[tuple[BasisKet, int, bool]]]


def _pair_image(
    model: AnyonModel, ket: BasisKet, labels: tuple[str, ...], pair: tuple[str, str], base: int, mode: str
) -> _Image:
    """``ket`` sent to ``labels``, each image's phase ``base`` plus R(pair; channel).

    A pair with one channel keeps the ket's tag.  Where the pair fuses in
    two channels, a tagged ket stays in its channel (None where the mode
    names the other); an untagged one splits into both channels (mode
    ``"split"``) or goes into the mode's channel.
    """
    a, b = pair
    channels = fuse(model, a, b)
    if len(channels) == 1:
        return [(BasisKet(labels, ket.tag), base + r_angle(model, a, b, channels[0]), False)]
    if ket.tag is not None:
        if mode not in (SPLIT, ket.tag) and ket.tag in channels:
            return None
        channels = (ket.tag,)
    elif mode != SPLIT:
        channels = (mode,)
    split = len(channels) > 1
    return [(BasisKet(labels, channel), base + r_angle(model, a, b, channel), split) for channel in channels]


def _exchange_ket(model: AnyonModel, ket: BasisKet, op: BraidOp) -> _Image:
    lo, hi = min(op.x, op.y), max(op.x, op.y)
    swapped = list(ket.labels)
    swapped[lo], swapped[hi] = swapped[hi], swapped[lo]
    return _pair_image(model, ket, tuple(swapped), (ket.labels[lo], ket.labels[hi]), 0, op.mode)


def _circle_ket(model: AnyonModel, ket: BasisKet, op: BraidOp) -> _Image:
    a, b = ket.labels[op.x], ket.labels[op.y]
    if model.kind == "ising" and a == b == EPS:
        return [(ket, 8, False)]  # the Ising fermion pair circles to -1, though its monodromy is 0
    channels = fuse(model, a, b)
    channel = channels[0] if len(channels) == 1 else ket.tag or VAC  # an untagged split pair circles in 1
    return [(ket, monodromy_angle(model, a, b, channel), False)]


def _tripartite_ket(model: AnyonModel, ket: BasisKet, op: BraidOp) -> _Image:
    labels = ket.labels
    if labels.count(SIGMA) == 3:
        # kappa and R(sigma, sigma; 1), then the rule of one sigma pair
        kappa_shift = 0 if model.kappa[SIGMA] == 1 else 8
        base = kappa_shift + r_angle(model, SIGMA, SIGMA, VAC)
        return _pair_image(model, ket, labels, (SIGMA, SIGMA), base, op.mode)
    # the phases of the other pairs, then the rule of the sigma pair (or of the last pair)
    pairs = ((labels[0], labels[1]), (labels[0], labels[2]), (labels[1], labels[2]))
    *others, last = sorted(pairs, key=lambda pair: pair == (SIGMA, SIGMA))
    base = sum(r_angle(model, a, b, fuse(model, a, b)[0]) for a, b in others)
    return _pair_image(model, ket, labels, last, base, op.mode)


# -- compiled op tables -------------------------------------------------------

@dataclass(frozen=True)
class _OpTable:
    """One op on the tagged basis of n registers, as a gather.

    ``kets`` is the basis, ``qstate.tagged_basis``.  Output ket i receives
    sum_s amp[s, i] * in[src[s, i]] over at most two sources s (one row
    per source; a missing source has amplitude 0).  ``conflicts`` lists
    the source kets the op's rule has no image of (a channel conflict).
    """

    op: BraidOp
    kets: tuple[BasisKet, ...]
    src: np.ndarray
    amp: np.ndarray
    conflicts: np.ndarray


_RULES = {EXCHANGE: _exchange_ket, CIRCLE: _circle_ket, TRIPARTITE: _tripartite_ket}

# Tables by (model content, op, register count).  A model is rebuilt for
# every CLI command, so the key is its content (``content_id``), not its
# identity; the values are never mutated.
_TABLES: dict[tuple[int, BraidOp, int], _OpTable] = {}


def _check_domain(model: AnyonModel, op: BraidOp, n: int) -> None:
    if op.kind == TRIPARTITE:
        if model.kind != "ising":
            raise BraidError("the tripartite braid is defined only for Ising-type models")
        if n != 3:
            raise BraidError(f"the tripartite braid needs 3 registers, got {n}")
    elif max(op.x, op.y) >= n:
        raise BraidError(f"party indices ({op.x}, {op.y}) out of range for {n} registers")


def _compile_kets(model: AnyonModel, op: BraidOp, n: int) -> _OpTable:
    """Run the op's per-ket rule once on every tagged basis ket of n registers."""
    rule = _RULES[op.kind]
    kets, index = tagged_basis(model.alphabet, n)
    sources: list[list[tuple[int, complex]]] = [[] for _ in kets]
    conflicts = []
    for i, ket in enumerate(kets):
        image = rule(model, ket, op)
        if image is None:
            conflicts.append(i)
            continue
        for out, eighths, split in image:
            amp = phase_from_eighths(eighths)
            sources[index[out]].append((i, amp * _INV_SQRT2 if split else amp))
    width = max(len(pairs) for pairs in sources)
    if width > 2:
        raise RuntimeError(f"{op.token()} sends {width} kets to one ket, at most 2 expected")
    src = np.zeros((max(width, 1), len(kets)), dtype=np.intp)
    amp = np.zeros(src.shape, dtype=complex)
    for i, pairs in enumerate(sources):
        for s, (source, value) in enumerate(pairs):
            src[s, i], amp[s, i] = source, value
    return _OpTable(op, kets, src, amp, np.array(conflicts, dtype=np.intp))


def _compile(model: AnyonModel, op: BraidOp, n: int) -> _OpTable:
    """The op's table on n registers; a model ``validate_model`` does not pass is refused before any rule reads it."""
    report = validate_model(model)
    if not report.ok:
        raise BraidError(f"model {model.name} is not valid: {', '.join(report.violations)}")
    _check_domain(model, op, n)
    return _compile_kets(model, op, n)


def _table(model: AnyonModel, op: BraidOp, n: int) -> _OpTable:
    """The op's table for the model and register count, compiled on first use."""
    if op.mode != SPLIT and all(len(channels) == 1 for channels in model.fusion.values()):
        op = BraidOp(op.kind, op.x, op.y)  # no pair splits, so the mode changes nothing
    key = (model.content_id, op, n)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _compile(model, op, n)
    return table


def _gather(table: _OpTable, psi: np.ndarray) -> np.ndarray:
    """The op on dense amplitudes over the table's basis (last axis)."""
    if table.conflicts.size:
        held = np.abs(psi[..., table.conflicts]) > PRUNE_EPS  # an amplitude a StateVector keeps
        hit = table.conflicts[held.reshape(-1, table.conflicts.size).any(axis=0)]
        if hit.size:
            ket = table.kets[hit[0]]
            raise ChannelConflictError(
                f"term {ket} already fuses in channel {ket.tag!r}; cannot resolve to {table.op.mode!r}"
            )
    out = table.amp[0] * psi.take(table.src[0], axis=-1)
    for src, amp in zip(table.src[1:], table.amp[1:]):
        out += amp * psi.take(src, axis=-1)
    return out


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
    return apply_ops(model, state, (BraidOp(EXCHANGE, x, y, mode),))


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
    return apply_ops(model, state, (BraidOp(CIRCLE, x, y),))


def tripartite_braid(model: AnyonModel, state: StateVector) -> StateVector:
    """The three-strand Ising braid with fusion-channel splitting.

    Terms without a sigma pair pick up the product of single-exchange
    phases over the three party pairs.  An untagged all-sigma term splits
    into vacuum and fermion branches with amplitudes
    kappa * R1^2 / sqrt(2) and kappa * R1 * Reps / sqrt(2); a tagged
    all-sigma term evolves inside its channel with kappa * R1 * Rtag.
    """
    return apply_ops(model, state, (BraidOp(TRIPARTITE),))


def op_set(kind: str) -> tuple[BraidOp, ...]:
    """The single ops of the exhaustive sweep: both adjacent exchanges, all
    three circles, and, for the Ising model, the tripartite braid."""
    return parse_ops("xAB;xBC;cAB;cAC;cBC" + (";t3" if kind == "ising" else ""))


def _braid_dense(tables: Sequence[_OpTable], psi: np.ndarray) -> np.ndarray:
    """The tables' ops on dense amplitudes over their basis (last axis): their gathers composed, nothing pruned."""
    for table in tables:
        psi = _gather(table, psi)
    return psi


def _op_tuple(ops: Sequence[BraidOp]) -> tuple[BraidOp, ...]:
    """``ops`` as a tuple; BraidError unless it is a sequence of ``BraidOp``, an op string included."""
    if not isinstance(ops, Iterable):
        raise BraidError(f"ops must be a word, a sequence of ops, got {ops!r}")
    found = (ops,) if isinstance(ops, str) else tuple(ops)
    for op in found:
        if not isinstance(op, BraidOp):
            raise BraidError(f"an op must be a BraidOp, got {op!r}; parse_ops reads an op string")
    return found


def apply_ops(model: AnyonModel, state: StateVector, ops: Sequence[BraidOp]) -> StateVector:
    """Apply the ops in order: dense once, a gather per op, labeled once.

    A ket outside the tagged basis is named by its first foreign label, or else its tag.
    A state whose tagged basis has more than ``MAX_TAGGED_KETS`` kets is refused before any is built.
    """
    ops = _op_tuple(ops)
    if not ops:
        return state
    n = state.n_registers
    size = len(TAGS) * model.d**n
    if size > MAX_TAGGED_KETS:
        raise BraidError(f"{n} registers make {size} tagged kets, more than the dense layout's {MAX_TAGGED_KETS}")
    tables = [_table(model, op, n) for op in ops]  # every op outside its domain is refused before any ket
    kets, index = tagged_basis(model.alphabet, n)
    psi = np.zeros(len(kets), dtype=complex)
    for ket, amp in state.items():
        i = index.get(ket)
        if i is None:
            for label in ket.labels:
                model.index(label)
            raise FusionChannelError(f"channel tag {ket.tag!r} is not one of {TAGS}")
        psi[i] = amp
    psi = _braid_dense(tables, psi)
    return dense_state(psi.reshape((model.d,) * n + (len(TAGS),)), model.alphabet)


def _braided_rows(scheme: MaskingScheme, ops: Sequence[BraidOp]) -> np.ndarray:
    """The d encoder rows after the ops, as one dense array rows[j, a, b, c, tag]."""
    rows = encoder_rows(scheme)
    tables = [_table(scheme.model, op, 3) for op in ops]
    return _braid_dense(tables, rows.reshape(scheme.d, -1)).reshape(rows.shape)


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
    trials: int = DEFAULT_TRIALS,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> BraidReport:
    """Encode seeded random inputs, braid them, and re-verify the masking.

    The verdict passes iff every braided trial's marginals stay within
    ``tol`` of I/d and the norm never drifts past the unitarity bound.
    Every op is linear, so the d encoder rows are gathered once through
    the op tables, as one dense array, and the trials run as one batch
    over them (``evaluate_trials``).  The worst trial is replayed through
    the labeled ``verify_masking``, before the braid from ``encode`` and
    after it as the same combination of the braided rows, and both
    reports must pass too.  The unbraided run is ``run_masking_campaign``,
    so at least one op is needed: a report's ops run again through ``--ops``.
    """
    check_tol(tol)
    seed = check_seed(seed)
    trials = check_seed(trials, "trials", positive=True)
    ops = _op_tuple(ops)
    if not ops:
        raise BraidError("no ops to braid with; run_masking_campaign checks the unbraided scheme")
    alphabet = scheme.model.alphabet
    rows = _braided_rows(scheme, ops)
    batch = evaluate_trials(rows, trials, seed, tol)
    pre_report = verify_masking(encode(scheme, batch.worst_coeffs), alphabet, tol=tol)
    post_state = _combined(rows, np.array(batch.worst_coeffs), alphabet)
    post_report = verify_masking(post_state, alphabet, tol=tol)
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
