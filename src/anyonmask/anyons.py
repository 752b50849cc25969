"""Sector algebras of the two Kitaev-model excitation families.

The Abelian model (Chern number c = 0) has four superselection sectors:
the vacuum ``1``, the two vortices ``e`` and ``m``, and the fermion
``eps``.  The Ising-type models have three sectors ``1``, ``eps``,
``sigma`` and are parameterized by an odd Chern number taken mod 16.

Every exchange phase in either model is a power of exp(i*pi/8), so
phases are stored internally as integer multiples of pi/8 ("eighths").
Phase products are then integer additions mod 16 and comparisons stay
exact; conversion to a complex number happens only at the edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .qstate import ValidationReport, check_seed

VAC = "1"
E = "e"
M = "m"
EPS = "eps"
SIGMA = "sigma"

ABELIAN_ALPHABET = (VAC, E, M, EPS)
ISING_ALPHABET = (VAC, EPS, SIGMA)


def _mod16(k: int, name: str) -> int:
    """``k`` mod 16 as an int, through ``check_seed``; ValueError naming ``name`` unless ``k`` is an integer."""
    try:
        if not isinstance(k, (bool, np.bool_)):
            return check_seed(k % 16, name)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be an integer, got {k!r}")


def phase_from_eighths(k: int) -> complex:
    """Return exp(i*pi*k/8) for integer k (a bool or a float raises ValueError), reduced mod 16.

    Multiples of pi/2 are returned as exact unit complex numbers so that
    values like -1 and -i carry no floating-point dust.
    """
    k = _mod16(k, "eighths k")
    if k == 0:
        return complex(1.0, 0.0)
    if k == 4:
        return complex(0.0, 1.0)
    if k == 8:
        return complex(-1.0, 0.0)
    if k == 12:
        return complex(0.0, -1.0)
    return cmath.exp(1j * (math.pi * k / 8))


# a model's kind, c, alphabet and every table -> content_id, in the order contents were first seen
_CONTENT_IDS: dict[tuple, int] = {}


class UnknownSectorError(ValueError):
    """A label outside the model's alphabet was used."""


class FusionChannelError(ValueError):
    """A channel that is not a fusion outcome of the given pair was used."""


@dataclass(frozen=True)
class AnyonModel:
    """Immutable lookup tables for one sector algebra.

    Fields hold the fusion table, the exchange phases R(a, b; channel) as
    pi/8 multiples, the topological spins (same encoding), and the
    Frobenius-Schur indicators (+1 or -1 per sector).  Each table is a
    read-only copy of the mapping it was built from, so what is derived
    from a model's tables once stays true of it.
    """

    kind: str  # "abelian" or "ising"
    c: int
    alphabet: tuple[str, ...]
    fusion: Mapping[tuple[str, str], tuple[str, ...]]
    r_eighths: Mapping[tuple[str, str, str], int]
    theta_eighths: Mapping[str, int]
    kappa: Mapping[str, int]

    def __post_init__(self) -> None:
        for name in ("fusion", "r_eighths", "theta_eighths", "kappa"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def name(self) -> str:
        """``<kind>-c<c>``, read off the fields, so a model with another c has another name."""
        return f"{self.kind}-c{self.c}"

    @property
    def d(self) -> int:
        return len(self.alphabet)

    def index(self, label: str) -> int:
        try:
            return self.alphabet.index(label)
        except ValueError:
            raise UnknownSectorError(
                f"label {label!r} is not in the {self.name} alphabet {self.alphabet}"
            ) from None

    @cached_property
    def content_id(self) -> int:
        """A small int per distinct content (kind, c, alphabet and every table), equal for models built alike.

        What is derived from a model's tables can be shared between models
        built alike under this key.  A tuple of every table rehashes on
        every lookup; this int is found once per model object.
        """
        tables = (self.fusion, self.r_eighths, self.theta_eighths, self.kappa)
        key = (self.kind, self.c, self.alphabet, *(tuple(sorted(table.items())) for table in tables))
        return _CONTENT_IDS.setdefault(key, len(_CONTENT_IDS))


def abelian_c0() -> AnyonModel:
    """The c = 0 Abelian model: Z2 x Z2 fusion with Kitaev's e-m exchange phases."""
    enc = {VAC: 0, E: 1, M: 2, EPS: 3}  # the e bit 1 and the m bit 2; eps carries both
    dec = {v: k for k, v in enc.items()}
    fusion = {
        (a, b): (dec[enc[a] ^ enc[b]],)
        for a in ABELIAN_ALPHABET
        for b in ABELIAN_ALPHABET
    }
    # R(a, b; a x b) is -1 exactly where a carries m and b carries e
    r_eighths = {(a, b, ab): 8 * ((enc[a] >> 1) & enc[b] & 1) for (a, b), (ab,) in fusion.items()}
    theta = {x: 0 for x in ABELIAN_ALPHABET}
    kappa = {x: 1 for x in ABELIAN_ALPHABET}
    return AnyonModel(
        kind="abelian",
        c=0,
        alphabet=ABELIAN_ALPHABET,
        fusion=fusion,
        r_eighths=r_eighths,
        theta_eighths=theta,
        kappa=kappa,
    )


def _kappa_sigma(c: int) -> int:
    """The Frobenius-Schur indicator (-1)^((c^2 - 1)/8) of sigma at odd Chern number c."""
    return (-1) ** (((c * c - 1) // 8) % 2)


def ising_like(c: int = 1) -> AnyonModel:
    """An Ising-type model with odd integer Chern number c (taken mod 16).

    The vortex data is theta_sigma = exp(i*pi*c/8) and
    kappa_sigma = (-1)^((c^2 - 1)/8); the exchange phases are
    R(sigma,sigma;1) = kappa * exp(-i*pi*c/8),
    R(sigma,sigma;eps) = kappa * exp(i*3*pi*c/8),
    R(eps,sigma;sigma) = R(sigma,eps;sigma) = -i^c, and R(eps,eps;1) = -1.
    """
    reduced = _mod16(c, "Chern number c")
    if reduced % 2 == 0:
        raise ValueError(f"Ising-type models require an odd Chern number, got {c}")
    c = reduced
    kappa_sigma = _kappa_sigma(c)
    kappa_shift = 0 if kappa_sigma == 1 else 8
    fusion = {
        (EPS, EPS): (VAC,),
        (EPS, SIGMA): (SIGMA,),
        (SIGMA, EPS): (SIGMA,),
        (SIGMA, SIGMA): (VAC, EPS),
    }
    r_eighths = {
        (EPS, EPS, VAC): 8,
        (SIGMA, SIGMA, VAC): (kappa_shift - c) % 16,
        (SIGMA, SIGMA, EPS): (kappa_shift + 3 * c) % 16,
        (EPS, SIGMA, SIGMA): (8 + 4 * c) % 16,
        (SIGMA, EPS, SIGMA): (8 + 4 * c) % 16,
    }
    # the vacuum is the fusion unit and braids trivially
    for x in ISING_ALPHABET:
        fusion[(VAC, x)] = (x,)
        fusion[(x, VAC)] = (x,)
        r_eighths[(VAC, x, x)] = 0
        r_eighths[(x, VAC, x)] = 0
    theta = {VAC: 0, EPS: 8, SIGMA: c % 16}
    kappa = {VAC: 1, EPS: 1, SIGMA: kappa_sigma}
    return AnyonModel(
        kind="ising",
        c=c,
        alphabet=ISING_ALPHABET,
        fusion=fusion,
        r_eighths=r_eighths,
        theta_eighths=theta,
        kappa=kappa,
    )


def fuse(model: AnyonModel, a: str, b: str) -> tuple[str, ...]:
    """Full channel multiset of a x b: one channel, or two where the pair splits."""
    model.index(a)
    model.index(b)
    return model.fusion[(a, b)]


def r_angle(model: AnyonModel, a: str, b: str, channel: str) -> int:
    """Exchange phase R(a, b; channel) of a counterclockwise swap, as a pi/8 multiple mod 16."""
    if channel not in fuse(model, a, b):
        raise FusionChannelError(
            f"{channel!r} is not a fusion channel of ({a}, {b})"
        )
    return model.r_eighths[(a, b, channel)] % 16


def monodromy_angle(model: AnyonModel, a: str, b: str, channel: str) -> int:
    """Full-circle phase of a around b in the channel, as a pi/8 multiple."""
    return (r_angle(model, b, a, channel) + r_angle(model, a, b, channel)) % 16


def _in_eighths(k: int) -> bool:
    """Whether ``k`` is a phase in canonical eighths: an integer in 0..15, as the built-in tables hold."""
    try:
        return check_seed(k) < 16
    except ValueError:
        return False


def validate_model(model: AnyonModel) -> ValidationReport:
    """Check every structural invariant of the model tables by name.

    First each entry a later check reads is looked up, and each one absent or
    foreign is named: ``sector-missing`` (``1``, and ``eps`` and ``sigma`` for
    Ising), ``fusion-missing`` (a pair with no channel), ``fusion-foreign`` (a
    channel outside the alphabet), ``r-missing``, ``theta-missing`` and
    ``kappa-missing``.  Then each phase and spin must be canonical eighths and
    each R entry a fusion channel; the fusion-structure checks run only on a
    complete, closed fusion table, and the kind's checks only where nothing
    was named absent or foreign and every R phase is canonical.  Whatever
    values the tables hold, a report is returned.
    """
    alphabet, fusion, r = model.alphabet, model.fusion, model.r_eighths
    theta, kappa = model.theta_eighths, model.kappa
    sectors = (VAC, EPS, SIGMA) if model.kind == "ising" else (VAC,)
    fusion_gaps = [f"sector-missing:{x}" for x in sectors if x not in alphabet]
    missing: list[str] = []
    for a in alphabet:
        for b in alphabet:
            if (a, b) not in fusion or not fusion[(a, b)]:
                fusion_gaps.append(f"fusion-missing:({a},{b})")
                continue
            for ch in fusion[(a, b)]:
                if ch not in alphabet:
                    fusion_gaps.append(f"fusion-foreign:({a},{b};{ch})")
                elif (a, b, ch) not in r:
                    missing.append(f"r-missing:({a},{b};{ch})")
        if a not in theta:
            missing.append(f"theta-missing:{a}")
        if a not in kappa:
            missing.append(f"kappa-missing:{a}")
    bad = fusion_gaps + missing

    for x, k in theta.items():
        if not _in_eighths(k):
            bad.append(f"theta-eighths:{x}")
    for (a, b, ch), k in r.items():
        if not _in_eighths(k):
            bad.append(f"r-eighths:({a},{b};{ch})")
        if ch not in fusion.get((a, b), (ch,)):  # a pair outside the alphabet may have no fusion row
            bad.append(f"r-channel:({a},{b};{ch})")

    if not fusion_gaps:
        for a in alphabet:
            if fusion[(VAC, a)] != (a,):
                bad.append(f"vacuum-unit:{a}")
            if VAC not in fusion[(a, a)]:
                bad.append(f"self-inverse:{a}")
            for b in alphabet:
                if sorted(fusion[(a, b)]) != sorted(fusion[(b, a)]):
                    bad.append(f"fusion-commutativity:({a},{b})")
                for c in alphabet:  # associativity of the flattened channel multisets
                    left = [x for ab in fusion[(a, b)] for x in fusion[(ab, c)]]
                    right = [x for bc in fusion[(b, c)] for x in fusion[(a, bc)]]
                    if sorted(left) != sorted(right):
                        bad.append(f"fusion-associativity:({a},{b},{c})")

    # the kind's checks add R phases, so they run only on present, canonical ones
    if fusion_gaps or missing or not all(map(_in_eighths, r.values())):
        return ValidationReport(ok=False, violations=tuple(bad))
    # a monodromy is read only in a channel of both orders: fusion-commutativity names one that (b, a) lacks
    if model.kind == "abelian":
        for x in alphabet:
            if theta[x] != 0:
                bad.append(f"abelian-theta:{x}")
            if kappa[x] != 1:
                bad.append(f"abelian-kappa:{x}")
        nontrivial = [x for x in alphabet if x != VAC]
        for a in nontrivial:
            for b in nontrivial:
                ch = fusion[(a, b)][0]
                if a != b and ch in fusion[(b, a)] and monodromy_angle(model, a, b, ch) != 8:
                    bad.append(f"abelian-distinct-monodromy:({a},{b})")
    elif model.kind == "ising":
        if theta[SIGMA] != model.c % 16:
            bad.append("theta-sigma")
        if theta[VAC] != 0 or theta[EPS] != 8:
            bad.append("theta-vacuum-or-fermion")
        if kappa[SIGMA] != _kappa_sigma(model.c):
            bad.append("kappa-sigma")
        both_orders = SIGMA in fusion[(EPS, SIGMA)] and SIGMA in fusion[(SIGMA, EPS)]
        if both_orders and monodromy_angle(model, EPS, SIGMA, SIGMA) != 8:
            bad.append("ising-eps-sigma-monodromy")
    else:
        bad.append(f"unknown-kind:{model.kind}")

    return ValidationReport(ok=not bad, violations=tuple(bad))

