"""Exact arithmetic in cyclotomic-rational fields Q(zeta_L).

An element is a polynomial in zeta_L with Fraction coefficients, reduced
modulo the L-th cyclotomic polynomial Phi_L, so the coefficient vector has
length deg(Phi_L) = phi(L) and representations are canonical: zero-testing
and equality are exact.  Phi_L is monic with integer coefficients, so the
reduction needs no division.

These values arise when a Laurent polynomial is specialized at a torsion
point: every coordinate contributes a rational times a root of unity, and
cohomology ranks at the point are computed by division-free elimination
over Z[zeta_L] (``field_rank``).  For L = 1 the field is plain Q and
as_fraction() recovers the rational value.

Elements are vectors of length phi(L), so one product costs about phi(L)^2
integer operations, and points read from files with an order above
MAX_CYCLOTOMIC_ORDER are refused with ResourceError before any arithmetic
starts.  Elimination without division multiplies every row below a pivot
by that pivot: content removal keeps coefficients small on the sparse,
structured differentials the program builds, but on a dense n x n matrix
their size can grow exponentially with the number of elimination steps,
up to the cap MAX_COEFFICIENT_GROWTH on their doublings of bit length.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import check_cap

MAX_CYCLOTOMIC_ORDER = 1000
# The pivot growth ``field_rank`` allows, in doublings of the bit length.
# Dense 20x20 matrices over Q(zeta_12) with 3-term entries double it with each
# pivot and stop after 1.3-2.9 s at 100-123 kbit (19-26 s to finish uncapped);
# induced covers at the fixture cap reach 777 x 64 bits (9 would refuse them).
# Largest pivots seen: 23 bits on the benchmark (seeds 1, 2, 7), 1019 bits
# in the tests, both against the 64-bit floor.
MAX_COEFFICIENT_GROWTH = 10


def _mobius(m: int) -> int:
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L (low degree first), the product of
    (x^d - 1)^mu(L/d) over the divisors d of L.  The factors with mu = 1 are
    multiplied out first, then those with mu = -1 divided out exactly, all
    over the integers."""
    if L < 1:
        raise ValueError("order must be positive")
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(L // d) == 1:  # poly *= x^d - 1
            poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
    for d in divisors:
        if _mobius(L // d) == -1:  # poly /= x^d - 1, solving from the low end
            quot = []
            for i in range(len(poly) - d):
                quot.append((quot[i - d] if i >= d else 0) - poly[i])
            poly = quot
    return tuple(poly)


def _reduce(vec: list, order: int) -> list:
    """vec (int or Fraction coefficients, low degree first) modulo Phi_L, as
    a list of length at most phi(L); vec is consumed.  Phi_L is monic, so
    each top term c*x^k is cancelled by subtracting c*x^(k - phi(L))*Phi_L."""
    phi = cyclotomic_polynomial(order)
    n = len(phi) - 1
    for k in range(len(vec) - 1, n - 1, -1):
        c = vec[k]
        if c:
            for j in range(n):
                if phi[j]:
                    vec[k - n + j] -= c * phi[j]
    del vec[n:]
    return vec


_ZERO = Fraction(0)


def _canonical(vec: list, order: int) -> tuple[Fraction, ...]:
    """The stored form of vec (int or Fraction coefficients): reduced mod
    Phi_L, padded to length phi(L), every entry a Fraction; vec is consumed."""
    vec = _reduce(vec, order)
    vec += [0] * (len(cyclotomic_polynomial(order)) - 1 - len(vec))
    return tuple(c if c.__class__ is Fraction else Fraction(c) if c else _ZERO for c in vec)


def _mul(a: Sequence, b: Sequence, order: int) -> list:
    """Product of two reduced coefficient vectors modulo Phi_L."""
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _reduce(prod, order)


class Cyclotomic:
    """Element of Q(zeta_L), reduced mod Phi_L.  Binary operations and
    equality require the same order L and raise ValueError otherwise;
    callers evaluating at a fixed torsion point share one L."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        """sum of coeffs[k] * zeta_L^k, coefficients int or Fraction."""
        self.order = order
        self.coeffs = _canonical(list(coeffs), order)

    @classmethod
    def rational(cls, order: int, value) -> "Cyclotomic":
        return cls(order, [Fraction(value)])

    @classmethod
    def root_of_unity(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_L^k as an element of Q(zeta_L)."""
        return cls(order, [0] * (k % order) + [1])

    def _check_order(self, other: "Cyclotomic") -> None:
        if self.order != other.order:
            raise ValueError(f"cyclotomic orders differ: {self.order} and {other.order}")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check_order(other)
        return Cyclotomic(self.order, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check_order(other)
        return Cyclotomic(self.order, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check_order(other)
        return Cyclotomic(self.order, _mul(self.coeffs, other.coeffs, self.order))

    def scale(self, c) -> "Cyclotomic":
        c = Fraction(c)
        return Cyclotomic(self.order, [a * c for a in self.coeffs])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        """The rational value when the element lies in Q; raises otherwise."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError("cyclotomic element is not rational")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check_order(other)
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = [
            (f"{c}" if k == 0 else f"{c}*z^{k}")
            for k, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic[{self.order}]({body})"


def field_rank(rows: list[list[Cyclotomic]]) -> int:
    """Rank of a matrix over Q(zeta_L) (all entries of one order L) by
    elimination without division.  Rows may be empty (rank 0).

    Rows are cleared of denominators (multiplied by their lcm) into integer
    coefficient vectors; a zero entry becomes a zero vector unexamined.  For
    each column j, the first row with a nonzero entry p there becomes the
    pivot row; every other row with entry a there has each later entry x
    replaced by p*x - a*y (y the pivot row's entry) and is divided by its
    integer content.  A pivot row whose largest coefficient has more than
    2**MAX_COEFFICIENT_GROWTH times the bit length of the input's (at least
    64) raises ResourceError; the check only refuses, so every rank it
    returns is the rank.  Soundness: Q(zeta_L) is a field, and multiplying
    a row by a nonzero element (p, the lcm, or 1/content) and subtracting a
    multiple of another row leaves the rank unchanged; zero tests are exact
    on canonical vectors.  Rows change in place and no column up to j is
    read again, so this is elimination on a leading column that is then
    dropped: the same pivots, the same operations on every later column
    (one with x = y = 0 keeps its zero, as p*0 - a*0 = 0) and the same
    contents, hence the same vectors and rank."""
    if not rows or not rows[0]:
        return 0
    order = rows[0][0].order
    blank = Cyclotomic(order, []).coeffs  # the coefficients of zero
    m = []
    for row in rows:
        den = math.lcm(*(c.denominator for x in row if x.coeffs != blank for c in x.coeffs))
        m.append([[c.numerator * (den // c.denominator) for c in x.coeffs] if x.coeffs != blank
                  else [0] * len(blank) for x in row])
    limit = max(max(abs(x) for row in m for v in row for x in v).bit_length(), 64) << MAX_COEFFICIENT_GROWTH
    rank = 0
    for j in range(len(m[0])):
        pivot = next((k for k, row in enumerate(m) if any(row[j])), None)
        if pivot is None:
            continue
        prow = m.pop(pivot)
        check_cap(max(abs(x) for v in prow[j:] for x in v).bit_length(), limit, "pivot coefficient bit length")
        rank += 1
        later = range(j + 1, len(prow))
        for row in m:
            a = row[j]
            if any(a):
                for c in later:
                    if any(row[c]) or any(prow[c]):
                        row[c] = [s - t for s, t in zip(_mul(prow[j], row[c], order), _mul(a, prow[c], order))]
                content = math.gcd(*(x for c in later for x in row[c]))
                if content > 1:
                    for c in later:
                        row[c] = [x // content for x in row[c]]
    return rank
