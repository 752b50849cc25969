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


# content_key -> content_id, in the order contents were first seen
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
    Frobenius-Schur indicators (+1 or -1 per sector).
    """

    name: str
    kind: str  # "abelian" or "ising"
    c: int
    alphabet: tuple[str, ...]
    fusion: Mapping[tuple[str, str], tuple[str, ...]]
    r_eighths: Mapping[tuple[str, str, str], int]
    theta_eighths: Mapping[str, int]
    kappa: Mapping[str, int]

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
    def content_key(self) -> tuple:
        """Every table of the model as one hashable value, the name left out.

        Two models built alike have equal keys, so what is derived from a
        model's tables can be shared between them; it is computed once per
        model object.
        """
        return (
            self.kind,
            self.c,
            self.alphabet,
            tuple(sorted(self.fusion.items())),
            tuple(sorted(self.r_eighths.items())),
            tuple(sorted(self.theta_eighths.items())),
            tuple(sorted(self.kappa.items())),
        )

    @cached_property
    def content_id(self) -> int:
        """A small int per distinct ``content_key``, equal for models built alike.

        A cheap dictionary key: a tuple of every table rehashes on every
        lookup, this int is found once per model object.
        """
        return _CONTENT_IDS.setdefault(self.content_key, len(_CONTENT_IDS))


def abelian_c0() -> AnyonModel:
    """The c = 0 Abelian model: Z2 x Z2 fusion with the vortex/fermion phases."""
    enc = {VAC: 0, E: 1, M: 2, EPS: 3}
    dec = {v: k for k, v in enc.items()}
    fusion = {
        (a, b): (dec[enc[a] ^ enc[b]],)
        for a in ABELIAN_ALPHABET
        for b in ABELIAN_ALPHABET
    }
    r_eighths: dict[tuple[str, str, str], int] = {}
    for x in ABELIAN_ALPHABET:
        r_eighths[(VAC, x, x)] = 0
        r_eighths[(x, VAC, x)] = 0
    r_eighths.update(
        {
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
    )
    theta = {x: 0 for x in ABELIAN_ALPHABET}
    kappa = {x: 1 for x in ABELIAN_ALPHABET}
    return AnyonModel(
        name="abelian-c0",
        kind="abelian",
        c=0,
        alphabet=ABELIAN_ALPHABET,
        fusion=fusion,
        r_eighths=r_eighths,
        theta_eighths=theta,
        kappa=kappa,
    )


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
    kappa_sigma = (-1) ** (((c * c - 1) // 8) % 2)
    kappa_shift = 0 if kappa_sigma == 1 else 8
    fusion = {
        (VAC, VAC): (VAC,),
        (VAC, EPS): (EPS,),
        (EPS, VAC): (EPS,),
        (VAC, SIGMA): (SIGMA,),
        (SIGMA, VAC): (SIGMA,),
        (EPS, EPS): (VAC,),
        (EPS, SIGMA): (SIGMA,),
        (SIGMA, EPS): (SIGMA,),
        (SIGMA, SIGMA): (VAC, EPS),
    }
    r_eighths: dict[tuple[str, str, str], int] = {}
    for x in ISING_ALPHABET:
        r_eighths[(VAC, x, x)] = 0
        r_eighths[(x, VAC, x)] = 0
    r_eighths.update(
        {
            (EPS, EPS, VAC): 8,
            (SIGMA, SIGMA, VAC): (kappa_shift - c) % 16,
            (SIGMA, SIGMA, EPS): (kappa_shift + 3 * c) % 16,
            (EPS, SIGMA, SIGMA): (8 + 4 * c) % 16,
            (SIGMA, EPS, SIGMA): (8 + 4 * c) % 16,
        }
    )
    theta = {VAC: 0, EPS: 8, SIGMA: c % 16}
    kappa = {VAC: 1, EPS: 1, SIGMA: kappa_sigma}
    return AnyonModel(
        name=f"ising-c{c}",
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


def _known_monodromy(model: AnyonModel, a: str, b: str, channel: str) -> int | None:
    """``monodromy_angle``, or None where it would read a missing entry or a channel (b, a) lacks (both named)."""
    try:
        return monodromy_angle(model, a, b, channel)
    except (KeyError, FusionChannelError):
        return None


def validate_model(model: AnyonModel) -> ValidationReport:
    """Check every structural invariant of the model tables by name.

    A missing entry is named (``fusion-missing``, ``r-missing`` for each
    channel of a pair, ``theta-missing``, ``kappa-missing``), and every
    check that would read it is skipped rather than raising ``KeyError``.
    """
    bad: list[str] = []
    alphabet = model.alphabet
    fusion, theta, kappa = model.fusion, model.theta_eighths, model.kappa

    for a in alphabet:
        for b in alphabet:
            if (a, b) not in fusion:
                bad.append(f"fusion-missing:({a},{b})")
                continue
            for ch in fusion[(a, b)]:
                if (a, b, ch) not in model.r_eighths:
                    bad.append(f"r-missing:({a},{b};{ch})")
            if (b, a) in fusion and tuple(sorted(fusion[(a, b)])) != tuple(sorted(fusion[(b, a)])):
                bad.append(f"fusion-commutativity:({a},{b})")
        # a missing pair is named above: a passing default skips the checks that read it
        if fusion.get((VAC, a), (a,)) != (a,):
            bad.append(f"vacuum-unit:{a}")
        if VAC not in fusion.get((a, a), (VAC,)):
            bad.append(f"self-inverse:{a}")
        if a not in theta:
            bad.append(f"theta-missing:{a}")
        elif not _in_eighths(theta[a]):
            bad.append(f"theta-eighths:{a}")
        if a not in kappa:
            bad.append(f"kappa-missing:{a}")

    for (a, b, ch), k in model.r_eighths.items():
        if not _in_eighths(k):
            bad.append(f"r-eighths:({a},{b};{ch})")
        if ch not in fusion.get((a, b), (ch,)):
            bad.append(f"r-channel:({a},{b};{ch})")

    # associativity of the flattened channel multisets on all triples
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                left: list[str] = []
                right: list[str] = []
                try:
                    for ab in fusion[(a, b)]:
                        left.extend(fusion[(ab, c)])
                    for bc in fusion[(b, c)]:
                        right.extend(fusion[(a, bc)])
                except KeyError:
                    continue  # a missing pair, named above
                if sorted(left) != sorted(right):
                    bad.append(f"fusion-associativity:({a},{b},{c})")

    # a missing spin or indicator is named above: the expected value as the default skips its check
    if model.kind == "abelian":
        for x in alphabet:
            if theta.get(x, 0) != 0:
                bad.append(f"abelian-theta:{x}")
            if kappa.get(x, 1) != 1:
                bad.append(f"abelian-kappa:{x}")
        nontrivial = [x for x in alphabet if x != VAC]
        for a in nontrivial:
            for b in nontrivial:
                if a == b or (a, b) not in fusion:
                    continue
                if _known_monodromy(model, a, b, fusion[(a, b)][0]) not in (8, None):
                    bad.append(f"abelian-distinct-monodromy:({a},{b})")
    elif model.kind == "ising":
        c = model.c
        kappa_sigma = (-1) ** (((c * c - 1) // 8) % 2)
        if theta.get(SIGMA, c % 16) != c % 16:
            bad.append("theta-sigma")
        if theta.get(VAC, 0) != 0 or theta.get(EPS, 8) != 8:
            bad.append("theta-vacuum-or-fermion")
        if kappa.get(SIGMA, kappa_sigma) != kappa_sigma:
            bad.append("kappa-sigma")
        if _known_monodromy(model, EPS, SIGMA, SIGMA) not in (8, None):
            bad.append("ising-eps-sigma-monodromy")
    else:
        bad.append(f"unknown-kind:{model.kind}")

    return ValidationReport(ok=not bad, violations=tuple(bad))


def table_lines(model: AnyonModel) -> list[str]:
    """Flat text serialization (one line per fusion/R/theta/kappa entry)."""
    idx = model.index
    lines = [
        f"model {model.name} kind={model.kind} c={model.c}",
        "alphabet " + " ".join(model.alphabet),
    ]
    for a, b in sorted(model.fusion, key=lambda ab: (idx(ab[0]), idx(ab[1]))):
        lines.append(f"fuse {a} {b} -> " + " ".join(model.fusion[(a, b)]))
    for a, b, ch in sorted(model.r_eighths, key=lambda k: (idx(k[0]), idx(k[1]), idx(k[2]))):
        lines.append(f"r {a} {b} {ch} {model.r_eighths[(a, b, ch)] % 16}")
    for x in model.alphabet:
        lines.append(f"theta {x} {model.theta_eighths[x] % 16}")
    for x in model.alphabet:
        lines.append(f"kappa {x} {model.kappa[x]:+d}")
    return lines
