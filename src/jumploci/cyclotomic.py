"""Exact arithmetic in cyclotomic-rational fields Q(zeta_L).

An element is a polynomial in zeta_L with Fraction coefficients, reduced
modulo the L-th cyclotomic polynomial Phi_L, so the coefficient vector has
length deg(Phi_L) = phi(L) and representations are canonical: zero-testing
and equality are exact, and division is available because Phi_L is
irreducible over Q.

These values arise when a Laurent polynomial is specialized at a torsion
point: every coordinate contributes a rational times a root of unity, and
cohomology ranks at the point are computed by Gaussian elimination over
this field.  For L = 1 the field is plain Q and as_fraction() recovers the
rational value.

Elements are vectors of length phi(L), so the cost of every operation grows
with L; points read from files with an order above MAX_CYCLOTOMIC_ORDER
are refused with ResourceError before any arithmetic starts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import ResourceError

Vec = tuple[Fraction, ...]

MAX_CYCLOTOMIC_ORDER = 1000


def check_order(order: int) -> None:
    """Refuse an order above MAX_CYCLOTOMIC_ORDER with ResourceError."""
    if order > MAX_CYCLOTOMIC_ORDER:
        raise ResourceError(
            f"cyclotomic order {order} exceeds the cap of {MAX_CYCLOTOMIC_ORDER}"
        )


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    """Quotient and remainder of dense Q[x] division (lists, low degree first)."""
    num = list(num)
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / lead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


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
def cyclotomic_polynomial(L: int) -> Vec:
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
    return tuple(Fraction(c) for c in poly)


class Cyclotomic:
    """Element of Q(zeta_L), reduced mod Phi_L.  Binary operations require the
    same order L; callers evaluating at a fixed torsion point share one L."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Fraction]):
        phi_deg = len(cyclotomic_polynomial(order)) - 1
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > phi_deg:
            _, vec = _poly_divmod(vec, list(cyclotomic_polynomial(order)))
        vec += [Fraction(0)] * (phi_deg - len(vec))
        self.order = order
        self.coeffs = tuple(vec[:phi_deg])

    @classmethod
    def rational(cls, order: int, value) -> "Cyclotomic":
        return cls(order, [Fraction(value)])

    @classmethod
    def root_of_unity(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_L^k as an element of Q(zeta_L)."""
        k %= order
        vec = [Fraction(0)] * (k + 1)
        vec[k] = Fraction(1)
        return cls(order, vec)

    def promote(self, order: int) -> "Cyclotomic":
        """Image under the inclusion Q(zeta_L) -> Q(zeta_M) for L | M, which
        sends zeta_L to zeta_M^(M/L)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"order {self.order} does not divide {order}")
        step = order // self.order
        vec = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1 if self.coeffs else 1)
        for k, c in enumerate(self.coeffs):
            if c:
                vec[k * step] = c
        return Cyclotomic(order, vec)

    def _pair(self, other: "Cyclotomic"):
        if self.order == other.order:
            return self, other
        import math

        m = math.lcm(self.order, other.order)
        return self.promote(m), other.promote(m)

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        a, b = self._pair(other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        a, b = self._pair(other)
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self, other = self._pair(other)
        n = len(self.coeffs)
        prod = [Fraction(0)] * (2 * n - 1 if n else 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return Cyclotomic(self.order, prod)

    def scale(self, c) -> "Cyclotomic":
        c = Fraction(c)
        return Cyclotomic(self.order, [a * c for a in self.coeffs])

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm against
        Phi_L, which is irreducible over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # Maintain r = s * self (mod Phi_L); stop when r is a unit of Q[x].
        r0, s0 = list(cyclotomic_polynomial(self.order)), [Fraction(0)]
        r1, s1 = list(self.coeffs), [Fraction(1)]
        while r1 and any(r1):
            while r1 and r1[-1] == 0:
                r1.pop()
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, r, s
        while r0 and r0[-1] == 0:
            r0.pop()
        assert len(r0) == 1, "Phi_L must be coprime to any nonzero reduced element"
        inv_lead = 1 / r0[0]
        return Cyclotomic(self.order, [c * inv_lead for c in s0])

    def __truediv__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self * other.inverse()

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
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(self.order, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        # Equality promotes across orders, and a cross-order canonical form
        # would need conductor computations; only rational elements (the one
        # case with an obvious canonical value) are hashable.
        if all(c == 0 for c in self.coeffs[1:]):
            return hash(self.coeffs[0])
        raise TypeError("non-rational cyclotomic elements are unhashable")

    def __repr__(self) -> str:
        terms = [
            (f"{c}" if k == 0 else f"{c}*z^{k}")
            for k, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic[{self.order}]({body})"


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def field_rank(rows: list[list[Cyclotomic]]) -> int:
    """Rank of a matrix over Q(zeta_L) by Gaussian elimination with exact
    zero tests.  Rows may be empty (rank 0)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col].inverse()
        for r in range(row + 1, nrows):
            if m[r][col].is_zero():
                continue
            factor = m[r][col] * inv
            for c in range(col, ncols):
                m[r][c] = m[r][c] - factor * m[row][c]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
