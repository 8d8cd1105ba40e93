"""Canonical form: coefficient vectors over all nonempty-subset joint entropies.

Every linear combination of entropy and mutual information terms over n
variables is uniquely a linear combination of the 2**n - 1 unconditional
joint entropies.  Coordinate k (1-based) of a canonical vector is the
coefficient of the joint entropy of the subset whose bitmask equals k, so for
n = 2 the coordinate order is H(X1), H(X2), H(X1,X2).

The rewriting rules are

    H(a|g)   ->  +H(a|g)            with  H(a|g) = H(a+g) - H(g)
    I(a;b|g) ->  H(a+g) + H(b+g) - H(a+b+g) - H(g)

where + is set union; an H(empty) term is identically zero and is dropped.
Overlapping argument sets are legal and absorbed by the unions, which yields
identities such as I(X;X) = H(X) and H(X|X) = 0.

These rules live in one function, `_units`, which gives a measure's signed
subset masks; `cond_entropy`, `mutual_info`, `measure_vector` and
`canonicalize` all build their vectors from it.  `canonicalize` feeds the
units of every term into one accumulation, so an expression costs one
vector, not one per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, EmptySetError
from .parser import Entropy, InfoExpr, Measure, MutualInfo

VarSet = int  # bitmask over positions 1..n: bit i-1 set <=> variable i present

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CanonicalVector:
    """Exact-rational coefficients over the 2**n - 1 nonempty subsets."""

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe size must be at least 1")
        if len(self.coeffs) != (1 << self.n) - 1:
            raise DimensionMismatchError(
                f"expected {(1 << self.n) - 1} coefficients for n={self.n}, got {len(self.coeffs)}")

    @staticmethod
    def zero(n: int) -> "CanonicalVector":
        return CanonicalVector(n, ((1 << n) - 1) * (_ZERO,))

    @staticmethod
    def from_units(n: int, units: Iterable[tuple[int, Fraction]]) -> "CanonicalVector":
        """Accumulate (mask, coefficient) contributions; every mask must be nonempty."""
        coeffs = [_ZERO] * ((1 << n) - 1)
        for mask, coeff in units:
            if not 0 < mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range for n={n}")
            coeffs[mask - 1] += coeff
        return CanonicalVector(n, tuple(coeffs))

    def coeff(self, mask: int) -> Fraction:
        """Coefficient of the joint entropy of the given nonempty subset."""
        if not 0 < mask < (1 << self.n):
            raise ValueError(f"subset mask {mask} out of range for n={self.n}")
        return self.coeffs[mask - 1]

    def nonzero(self) -> Iterator[tuple[int, Fraction]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield i + 1, c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _require_same_n(self, other: "CanonicalVector") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"mixing vectors for n={self.n} and n={other.n}")

    def __add__(self, other: "CanonicalVector") -> "CanonicalVector":
        self._require_same_n(other)
        return CanonicalVector(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CanonicalVector") -> "CanonicalVector":
        self._require_same_n(other)
        return CanonicalVector(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CanonicalVector":
        return CanonicalVector(self.n, tuple(-a for a in self.coeffs))

    def scale(self, k: Fraction) -> "CanonicalVector":
        if k == 0:
            return CanonicalVector.zero(self.n)
        return CanonicalVector(self.n, tuple(k * a for a in self.coeffs))

    def dot(self, other: "CanonicalVector") -> Fraction:
        self._require_same_n(other)
        total = _ZERO
        for a, b in zip(self.coeffs, other.coeffs):
            if a and b:
                total += a * b
        return total


def joint_entropy(alpha: VarSet, n: int) -> CanonicalVector:
    """Canonical vector of H(X_alpha): the basis vector at mask(alpha)."""
    if alpha == 0:
        raise EmptySetError("joint entropy of the empty set has no coordinate")
    return CanonicalVector.from_units(n, [(alpha, 1)])


def _units(m: Measure) -> tuple[tuple[VarSet, int], ...]:
    """The rewriting rule: a measure's signed joint entropies, H(empty) dropped."""
    if isinstance(m, Entropy):
        if m.alpha == 0:
            raise EmptySetError("conditional entropy needs a nonempty left argument")
        units = ((m.alpha | m.gamma, 1),)
    else:
        if m.alpha == 0 or m.beta == 0:
            raise EmptySetError("mutual information needs nonempty argument sets")
        units = ((m.alpha | m.gamma, 1), (m.beta | m.gamma, 1), (m.alpha | m.beta | m.gamma, -1))
    return units + ((m.gamma, -1),) if m.gamma else units


def cond_entropy(alpha: VarSet, gamma: VarSet, n: int) -> CanonicalVector:
    """Canonical vector of H(X_alpha | X_gamma) = H(X_{a+g}) - H(X_g)."""
    return CanonicalVector.from_units(n, _units(Entropy(alpha, gamma)))


def mutual_info(alpha: VarSet, beta: VarSet, gamma: VarSet, n: int) -> CanonicalVector:
    """Canonical vector of I(X_alpha ; X_beta | X_gamma)."""
    return CanonicalVector.from_units(n, _units(MutualInfo(alpha, beta, gamma)))


def measure_vector(m: Measure, n: int) -> CanonicalVector:
    return CanonicalVector.from_units(n, _units(m))


def canonicalize(e: InfoExpr, n: int) -> CanonicalVector:
    """Canonical vector of a linear combination: every term's units in one pass."""
    return CanonicalVector.from_units(n, (
        (mask, coeff if sign > 0 else -coeff)  # signs are +-1; negating beats a Fraction product
        for coeff, m in e.terms for mask, sign in _units(m)))
