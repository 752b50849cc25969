"""Labeled exact linear algebra for small multi-register sector states.

States are finite complex superpositions over labeled basis kets.  A ket
holds an ordered tuple of register labels (one sector label per party)
and an optional fusion-channel tag.  The tag is a whole-system attribute,
never a register: kets that differ only in the tag are orthogonal, and
partial traces always sum the tag away.

Everything here is immutable after construction and all operations are
pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

PRUNE_EPS = 1e-15
# how far |coeffs|^2 may be from 1 for an input taken as unit: ``unit_coeffs`` refuses past it and
# the CLI's teleport normalizes past it, so an input the CLI passes on is never refused
UNIT_NORM_TOL = 1e-12


def _is_number(value) -> bool:
    """Whether ``value`` is a ``numbers.Number`` and no bool; np.True_ is no Number."""
    return not isinstance(value, bool) and isinstance(value, numbers.Number)


# The channel tags a ket can carry, in the order of the tag axis of the
# dense layout: amplitudes of n-register kets as an array of shape
# (d,) * n + (len(TAGS),), labels by alphabet position.
TAGS = (None, "1", "eps")


class BasisKet(NamedTuple):
    """One labeled basis ket: register labels plus an optional channel tag."""

    labels: tuple[str, ...]
    tag: str | None = None

    def __str__(self) -> str:
        body = "|" + " ".join(self.labels) + ">"
        return body if self.tag is None else body + "_" + self.tag


@dataclass(frozen=True)
class StateVector:
    """A finite map of basis kets to complex amplitudes.

    Amplitudes with magnitude below ``PRUNE_EPS`` are dropped on
    construction, so a stored amplitude is never an accumulated zero.  A
    NaN or infinite amplitude is an error, neither pruned as if it were
    zero nor kept to make every marginal NaN.
    """

    amplitudes: dict[BasisKet, complex]

    def __post_init__(self) -> None:
        pruned: dict[BasisKet, complex] = {}
        n_registers = None
        for ket, amp in self.amplitudes.items():
            if n_registers is None:
                n_registers = len(ket.labels)
            elif len(ket.labels) != n_registers:
                raise ValueError("all kets in a state must have the same register count")
            if not isinstance(amp, (complex, float)) and not _is_number(amp):  # a quick check first
                raise ValueError(f"amplitude of {ket} is not a number: {amp!r}")
            value = complex(amp)
            magnitude = abs(value)
            if PRUNE_EPS < magnitude < math.inf:
                pruned[ket] = value
            elif not magnitude <= PRUNE_EPS:
                raise ValueError(f"amplitude of {ket} is not finite (NaN or inf): {value}")
        object.__setattr__(self, "amplitudes", pruned)

    def items(self):
        return self.amplitudes.items()

    def __len__(self) -> int:
        return len(self.amplitudes)

    @property
    def n_registers(self) -> int:
        for ket in self.amplitudes:
            return len(ket.labels)
        return 0

    @property
    def tagged(self) -> bool:
        return any(ket.tag is not None for ket in self.amplitudes)

    def amplitude(self, ket: BasisKet) -> complex:
        return self.amplitudes.get(ket, 0j)


def basis_state(labels: Sequence[str], tag: str | None = None, amp: complex = 1.0) -> StateVector:
    return StateVector({BasisKet(tuple(labels), tag): amp})


def norm(state: StateVector) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in state.amplitudes.values()))


def inner(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate-linear in the first argument; ValueError for two register counts."""
    if len(s2) < len(s1):
        return inner(s2, s1).conjugate()
    if s1 and s1.n_registers != s2.n_registers:
        raise ValueError(f"inner product of states of {s1.n_registers} and {s2.n_registers} registers")
    return sum((a1.conjugate() * s2.amplitude(ket) for ket, a1 in s1.items()), 0j)


def tensor(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product; register tuples concatenate and amplitudes multiply.

    The channel tag is a whole-system attribute, so at most one factor may
    carry tags.
    """
    if s1.tagged and s2.tagged:
        raise ValueError("cannot tensor two tagged states; the channel tag is system-wide")
    out: dict[BasisKet, complex] = {}
    for k1, a1 in s1.items():
        for k2, a2 in s2.items():
            out[BasisKet(k1.labels + k2.labels, k1.tag or k2.tag)] = a1 * a2
    return StateVector(out)


@dataclass(frozen=True)
class DensityMatrix:
    """A small Hermitian operator indexed by register-label tuples.

    The basis never carries channel tags; tags are traced out before a
    density matrix is formed.
    """

    basis: tuple[tuple[str, ...], ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (len(self.basis), len(self.basis)):
            raise ValueError(f"entries shape {arr.shape} does not match basis size {len(self.basis)}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @staticmethod
    def maximally_mixed(basis: Sequence[tuple[str, ...]]) -> "DensityMatrix":
        basis = tuple(tuple(b) for b in basis)
        d = len(basis)
        return DensityMatrix(basis, np.eye(d, dtype=complex) / d)


def first_repeat(items: Sequence):
    """The first item of ``items`` equal to an earlier one; call it only when one is."""
    return next(item for i, item in enumerate(items) if item in items[:i])


def product_basis(alphabet: Sequence[str], n_registers: int) -> tuple[tuple[str, ...], ...]:
    """All label tuples of the given length, in alphabet (row-major) order; ValueError if a label repeats."""
    if len(set(alphabet)) != len(alphabet):
        raise ValueError(f"alphabet repeats the label {first_repeat(alphabet)!r}")
    return tuple(itertools.product(alphabet, repeat=n_registers))


@lru_cache(maxsize=None)
def tagged_basis(alphabet: tuple[str, ...], n: int) -> tuple[tuple[BasisKet, ...], dict[BasisKet, int]]:
    """The kets of the dense layout in its order (labels row-major, then ``TAGS``), and their positions."""
    kets = tuple(BasisKet(labels, tag) for labels in product_basis(alphabet, n) for tag in TAGS)
    return kets, {ket: i for i, ket in enumerate(kets)}


def dense_state(psi: np.ndarray, alphabet: Sequence[str]) -> StateVector:
    """The state of amplitudes ``psi`` in the dense layout: its nonzero entries, in layout order."""
    d, n = len(alphabet), psi.ndim - 1
    if psi.shape != (d,) * n + (len(TAGS),):
        raise ValueError(f"amplitudes of shape {psi.shape} are not in the dense layout of {d} labels")
    kets = tagged_basis(tuple(alphabet), n)[0]
    flat = psi.reshape(-1)
    nonzero = np.flatnonzero(flat)
    # one conversion to Python complex numbers, the values complex() gives one by one
    return StateVector(dict(zip(map(kets.__getitem__, nonzero.tolist()), flat[nonzero].tolist())))


def partial_trace(
    state: StateVector,
    keep: Iterable[int],
    basis: Sequence[tuple[str, ...]] | None = None,
) -> DensityMatrix:
    """Reduced density matrix of ``state`` on the kept registers.

    Channel tags are always summed over, whatever ``keep`` says.  If no
    basis is supplied, the sorted set of kept label tuples present in the
    state is used; supply the full product basis when comparing against a
    fixed target such as the maximally mixed state.
    """
    if not isinstance(keep, Iterable):
        raise ValueError(f"keep must be an iterable of register indices, got {keep!r}")
    kept = sorted({check_seed(i, "keep") for i in keep})
    n = state.n_registers
    if not kept:
        raise ValueError("keep must name at least one register")
    if kept[-1] >= n:  # a state with no kets has no registers
        raise ValueError(f"keep indices {kept} out of range for {n} registers")
    traced = [i for i in range(n) if i not in kept]
    take_kept, take_traced = _label_getter(kept), _label_getter(traced)

    if basis is None:
        basis = tuple(sorted({take_kept(ket.labels) for ket in state.amplitudes}))
    else:
        basis = tuple(map(tuple, basis))
    index = {b: i for i, b in enumerate(basis)}
    if len(index) != len(basis):
        raise ValueError(f"basis repeats the label tuple {first_repeat(basis)}")

    # kets sharing the traced labels and the tag, as (row of rho, amplitude)
    groups: dict[tuple, list[tuple[int, complex]]] = {}
    for ket, amp in state.items():
        i = index.get(take_kept(ket.labels))
        if i is None:
            raise ValueError(f"state label tuple {take_kept(ket.labels)} missing from the supplied basis")
        groups.setdefault((take_traced(ket.labels), ket.tag), []).append((i, amp))

    # rho entries add as Python complex numbers, group by group in ket order:
    # the adds of numpy's per-entry += in the same order, without its
    # per-entry indexing cost
    dim = len(basis)
    rho = [0j] * (dim * dim)
    for members in groups.values():
        for i, ab in members:
            row = i * dim
            for j, ac in members:
                rho[row + j] += ab * ac.conjugate()
    return DensityMatrix(basis, np.array(rho, dtype=complex).reshape(dim, dim))


def _label_getter(indices: list[int]):
    """labels -> the tuple of the labels at the sorted ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    # itemgetter of one index returns the bare label; a slice keeps the tuple
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0, 0))


def hs_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Hilbert-Schmidt distance sqrt(sum |delta_ij|^2); zero iff entrywise equal."""
    if r1.basis != r2.basis:
        raise ValueError("density matrices are indexed by different bases")
    return float(np.linalg.norm(r1.entries - r2.entries))


def finite_coeffs(coeffs: Sequence[complex], d: int) -> np.ndarray:
    """``coeffs`` as a complex array; ValueError unless it holds d finite numbers.

    A bool or anything that is no number is refused by position, as a
    ``StateVector`` amplitude is: a complex array would hold "1" and True
    as 1 and None as NaN.
    """
    array = np.asarray(coeffs)
    if array.shape != (d,):
        raise ValueError(f"expected {d} coefficients, got shape {array.shape}")
    if not (isinstance(coeffs, np.ndarray) and coeffs.dtype.kind in "iufc"):  # a numeric array holds numbers
        for position, value in enumerate(coeffs):
            if not isinstance(value, (complex, float)) and not _is_number(value):  # a quick check first
                raise ValueError(f"coefficient {position} is not a number: {value!r}")
    coeffs = array.astype(complex, copy=False)
    if not np.isfinite(coeffs).all():
        raise ValueError(f"coefficients must be finite, got {coeffs}")
    return coeffs


def unit_coeffs(coeffs: Sequence[complex], d: int) -> np.ndarray:
    """``finite_coeffs``, also refused unless its norm is 1 to within ``UNIT_NORM_TOL``."""
    coeffs = finite_coeffs(coeffs, d)
    total = float(np.sum(np.abs(coeffs) ** 2))
    if abs(total - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"coefficients must have unit norm, got |coeffs|^2 = {total}")
    return coeffs


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless ``tol`` is a finite positive bound.

    An infinite bound passes every state and a NaN bound fails every one,
    so neither is a tolerance; nor is a bool, which would run as 0 or 1,
    or a value that is not a real number.
    """
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")


def check_seed(seed: int, name: str = "seed", positive: bool = False) -> int:
    """``seed`` as a plain int; ValueError unless it is a non-negative integer, of any size.

    The package's one integer rule: seeds, trial counts, orders, cells,
    kept registers, braid parties and outcomes.  None would draw
    from fresh OS entropy, a bool would run as 0 or 1 and a float is no
    index.  With ``positive`` it must be at least 1.  A numpy integer comes
    back as an int.
    """
    if not isinstance(seed, bool):
        try:
            value = operator.index(seed)
        except TypeError:
            pass
        else:
            if value >= int(positive):
                return value
    raise ValueError(f"{name} must be a {'positive' if positive else 'non-negative'} integer, got {seed!r}")
