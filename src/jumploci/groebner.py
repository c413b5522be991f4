"""Ideal arithmetic in the Laurent ring via polynomial-ring Groebner bases.

A Laurent ideal is represented by its contraction to the polynomial ring,
saturated with respect to the product of all variables: generators are
cleared of monomial factors (units), one auxiliary variable y and the
relation 1 - y*t1*...*tN are adjoined, a Groebner basis is computed in an
elimination order for y, and the y-free part is kept.  Dimension and
membership questions about the Laurent ideal then reduce to standard
polynomial-ring computations on the saturation:

  * radical membership f in sqrt(I): 1 in I_sat + (1 - z*f) with a fresh z;
  * codimension: N minus the maximal number of variables independent modulo
    the leading-term ideal of the saturated basis;
  * variety containment V(I) <= V(J): every generator of J in sqrt(I).

The engine is Buchberger's algorithm with the sugar selection strategy and
the coprime-lead-monomial criterion, over content-free integer coefficient
vectors.  Computations abort with ResourceError once the configured S-pair
budget is exhausted (default 200000, overridable per call or through the
JUMPLOCI_SPAIR_BUDGET environment variable).  The budget counts S-pairs,
not time, so it does not bound the run time of a slow reduction.

Internally polynomials are raw dicts {exponent tuple: Fraction} with
nonnegative exponents; the number of variables travels alongside because
auxiliary variables extend the ring temporarily.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import combinations

from .errors import InputError, ResourceError
from .laurent import LaurentPoly, RingContext

DEFAULT_SPAIR_BUDGET = 200_000
BUDGET_ENV_VAR = "JUMPLOCI_SPAIR_BUDGET"

Poly = dict  # {tuple[int,...]: Fraction}


def spair_budget(override=None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get(BUDGET_ENV_VAR)
    return int(env) if env else DEFAULT_SPAIR_BUDGET


# -- monomial orders --------------------------------------------------------


def _grevlex_key(exp):
    return (sum(exp),) + tuple(-e for e in reversed(exp))


class MonomialOrder:
    """Comparison key for exponent tuples; larger key = larger monomial."""

    def __init__(self, name: str, block: tuple[int, ...] = ()):
        if name not in ("grevlex", "lex", "elim"):
            raise InputError(f"unknown monomial order {name!r}")
        if name == "elim" and not block:
            raise InputError("elimination order needs a variable block")
        self.name = name
        self.block = block

    def key(self, exp):
        if self.name == "lex":
            return exp
        if self.name == "grevlex":
            return _grevlex_key(exp)
        inside = tuple(exp[i] for i in self.block)
        rest = tuple(e for i, e in enumerate(exp) if i not in self.block)
        return _grevlex_key(inside) + _grevlex_key(rest)

    @property
    def tag(self) -> str:
        return self.name if not self.block else f"elim{self.block}"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def order_from_tag(tag: str) -> MonomialOrder:
    if tag == "grevlex":
        return GREVLEX
    if tag == "lex":
        return LEX
    raise InputError(f"unknown monomial order {tag!r}")


# -- raw polynomial helpers -------------------------------------------------


def _lead(p: Poly, order: MonomialOrder):
    exp = max(p, key=order.key)
    return exp, p[exp]


def _sub_scaled(p: Poly, q: Poly, shift, coeff: Fraction) -> Poly:
    """p - coeff * x^shift * q, in place on a copy of p."""
    out = dict(p)
    for exp, c in q.items():
        key = tuple(a + b for a, b in zip(exp, shift))
        s = out.get(key, Fraction(0)) - coeff * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _normalize(p: Poly, order: MonomialOrder) -> Poly:
    """Scale to coprime integer coefficients with positive leading one."""
    if not p:
        return p
    den = math.lcm(*(c.denominator for c in p.values()))
    num = math.gcd(*(c.numerator for c in p.values()))
    scale = Fraction(den, num)
    if p[max(p, key=order.key)] < 0:
        scale = -scale
    return {e: c * scale for e, c in p.items()}


def _reduce(p: Poly, basis: list[Poly], order: MonomialOrder) -> Poly:
    """Full normal form of p against basis (tail terms reduced too)."""
    leads = [(g, _lead(g, order)) for g in basis if g]
    remainder: Poly = {}
    work = dict(p)
    while work:
        exp, coeff = _lead(work, order)
        reduced = False
        for g, (gexp, gcoeff) in leads:
            if all(a >= b for a, b in zip(exp, gexp)):
                shift = tuple(a - b for a, b in zip(exp, gexp))
                work = _sub_scaled(work, g, shift, coeff / gcoeff)
                reduced = True
                break
        if not reduced:
            remainder[exp] = coeff
            del work[exp]
    return remainder


def _spoly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    # S(f,g) = (lcm/lt f) f / lc f - (lcm/lt g) g / lc g
    fexp, fc = _lead(f, order)
    gexp, gc = _lead(g, order)
    lcm_exp = tuple(max(a, b) for a, b in zip(fexp, gexp))
    shift_f = tuple(a - b for a, b in zip(lcm_exp, fexp))
    shift_g = tuple(a - b for a, b in zip(lcm_exp, gexp))
    out: Poly = {}
    for exp, c in f.items():
        key = tuple(a + b for a, b in zip(exp, shift_f))
        out[key] = out.get(key, Fraction(0)) + c / fc
    for exp, c in g.items():
        key = tuple(a + b for a, b in zip(exp, shift_g))
        s = out.get(key, Fraction(0)) - c / gc
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return {e: c for e, c in out.items() if c}


def buchberger(generators: list[Poly], order: MonomialOrder, budget=None) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    Deterministic for a fixed order: input generators are canonically
    sorted, S-pairs are processed in sugar order with degree and insertion
    index as tie-breakers, and the final basis is inter-reduced, content
    normalized and sorted by leading monomial.
    """
    limit = spair_budget(budget)
    gens = [_normalize(dict(g), order) for g in generators if g]
    gens.sort(key=lambda g: (order.key(_lead(g, order)[0]), sorted(g.items())))
    basis: list[Poly] = []
    sugars: list[int] = []
    pairs: list[tuple[int, int, int]] = []  # (sugar, i, j)

    def add_poly(p: Poly, sugar: int):
        k = len(basis)
        basis.append(p)
        sugars.append(sugar)
        pexp, _ = _lead(p, order)
        for i in range(k):
            iexp, _ = _lead(basis[i], order)
            if all(a == 0 or b == 0 for a, b in zip(iexp, pexp)):
                continue  # coprime leads: S-polynomial reduces to zero
            lcm_exp = tuple(max(a, b) for a, b in zip(iexp, pexp))
            s = max(
                sugars[i] + sum(lcm_exp) - sum(iexp),
                sugar + sum(lcm_exp) - sum(pexp),
            )
            pairs.append((s, i, k))

    for g in gens:
        g = _reduce(g, basis, order)
        if g:
            add_poly(_normalize(g, order), sum(_lead(g, order)[0]))

    processed = 0
    while pairs:
        pairs.sort()
        sugar, i, j = pairs.pop(0)
        processed += 1
        if processed > limit:
            raise ResourceError(
                f"S-pair budget of {limit} exceeded during Groebner basis computation"
            )
        s = _spoly(basis[i], basis[j], order)
        s = _reduce(s, basis, order)
        if s:
            add_poly(_normalize(s, order), sugar)

    # Minimalize: drop elements whose lead is divisible by a kept lead.
    # Processing in increasing lead order guarantees divisors come first.
    minimal = []
    kept_leads: list[tuple[int, ...]] = []
    for g in sorted(basis, key=lambda g: order.key(_lead(g, order)[0])):
        exp = _lead(g, order)[0]
        if any(all(a >= b for a, b in zip(exp, lead)) for lead in kept_leads):
            continue
        minimal.append(g)
        kept_leads.append(exp)
    # Inter-reduce tails.
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = _reduce(g, others, order)
        if r:
            reduced.append(_normalize(r, order))
    reduced.sort(key=lambda g: order.key(_lead(g, order)[0]), reverse=True)
    return reduced


# -- Laurent <-> polynomial conversion ---------------------------------------


def laurent_to_poly(p: LaurentPoly) -> Poly:
    """Polynomialization: multiply by the monomial unit that makes every
    exponent nonnegative with per-variable minimum exactly 0.  This changes
    the element by a unit only, so saturated ideals and radical membership
    are unaffected."""
    if p.is_zero():
        return {}
    n = p.context.num_vars
    mins = [min(e[i] for e in p.terms) for i in range(n)]
    return {
        tuple(a - b for a, b in zip(exp, mins)): c for exp, c in p.terms.items()
    }


def _pad(p: Poly, extra: int) -> Poly:
    return {exp + (0,) * extra: c for exp, c in p.items()}


def _drop_last_var(p: Poly) -> Poly:
    return {exp[:-1]: c for exp, c in p.items()}


def _contains_nonzero_constant(basis: list[Poly]) -> bool:
    return any(len(g) == 1 and not any(next(iter(g))) for g in basis)


# -- LaurentIdeal ------------------------------------------------------------


class LaurentIdeal:
    """Finitely generated ideal of the Laurent ring with cached Groebner data
    for its coordinate saturation.  Immutable; caches are write-once."""

    __slots__ = ("context", "generators", "_sat", "_bases")

    def __init__(self, context: RingContext, generators):
        gens = []
        for g in generators:
            if not isinstance(g, LaurentPoly):
                raise InputError("ideal generators must be Laurent polynomials")
            if g.context != context:
                raise InputError("ring context mismatch")
            gens.append(g)
        self.context = context
        self.generators = tuple(gens)
        self._sat = None
        self._bases = {}

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"LaurentIdeal({gens})"

    def is_zero_ideal(self) -> bool:
        return all(g.is_zero() for g in self.generators)

    def _saturated_generators(self, budget=None) -> list[Poly]:
        """Generators of the polynomial-ring saturation by t1*...*tN."""
        if self._sat is not None:
            return self._sat
        polys = [laurent_to_poly(g) for g in self.generators if not g.is_zero()]
        if not polys:
            self._sat = []
            return self._sat
        n = self.context.num_vars
        # Adjoin y and the relation 1 - y*t1*...*tN, eliminate y.
        ext = [_pad(p, 1) for p in polys]
        rel = {(0,) * (n + 1): Fraction(1), (1,) * (n + 1): Fraction(-1)}
        elim = MonomialOrder("elim", (n,))
        basis = buchberger(ext + [rel], elim, budget)
        sat = [_drop_last_var(g) for g in basis if all(e[n] == 0 for e in g)]
        self._sat = sat
        return sat

    def groebner_basis(self, order="grevlex", budget=None) -> tuple[LaurentPoly, ...]:
        """Reduced Groebner basis of the saturated polynomial ideal under the
        requested order; {1} for the unit ideal, () for the zero ideal."""
        ord_obj = order if isinstance(order, MonomialOrder) else order_from_tag(order)
        if ord_obj.tag in self._bases:
            basis = self._bases[ord_obj.tag]
        else:
            sat = self._saturated_generators(budget)
            basis = buchberger(sat, ord_obj, budget) if sat else []
            if _contains_nonzero_constant(basis):
                basis = [{(0,) * self.context.num_vars: Fraction(1)}]
            self._bases[ord_obj.tag] = basis
        return tuple(LaurentPoly(self.context, g) for g in basis)

    def is_unit_ideal(self, budget=None) -> bool:
        basis = self.groebner_basis("grevlex", budget)
        return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()

    def radical_contains(self, f: LaurentPoly, budget=None) -> bool:
        """Whether f lies in the radical of the ideal, via the trick of
        adjoining 1 - z*f and testing for the unit ideal."""
        if f.context != self.context:
            raise InputError("ring context mismatch")
        if f.is_zero():
            return True
        sat = self._saturated_generators(budget)
        if not sat:
            return False  # radical of (0) in a domain is (0)
        if _contains_nonzero_constant(sat):
            return True
        n = self.context.num_vars
        fpoly = _pad(laurent_to_poly(f), 1)
        rel = dict_sub_one_minus_z_times(fpoly, n)
        basis = buchberger([_pad(p, 1) for p in sat] + [rel], GREVLEX, budget)
        return _contains_nonzero_constant(basis)

    def codimension(self, budget=None):
        """N minus the Krull dimension of the saturated ideal; math.inf for
        the unit ideal (empty locus), 0 for the zero ideal."""
        if self.is_zero_ideal():
            return 0
        basis = self.groebner_basis("grevlex", budget)
        if len(basis) == 1 and basis[0].is_constant():
            return math.inf
        n = self.context.num_vars
        leads = [max(g.terms, key=GREVLEX.key) for g in basis]
        for size in range(n, -1, -1):
            for subset in combinations(range(n), size):
                inside = set(subset)
                if not any(
                    all(e == 0 or i in inside for i, e in enumerate(lead))
                    for lead in leads
                ):
                    return n - size
        return n  # unreachable: the empty subset is always independent or unit

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentIdeal)
            and self.context == other.context
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.context, self.generators))


def dict_sub_one_minus_z_times(fpoly: Poly, n: int) -> Poly:
    """The relation 1 - z*f in n+1 variables, z the last variable; ``fpoly``
    must already be padded to n+1 variables."""
    rel = {(0,) * (n + 1): Fraction(1)}
    for exp, c in fpoly.items():
        key = exp[:-1] + (exp[-1] + 1,)
        s = rel.get(key, Fraction(0)) - c
        if s:
            rel[key] = s
        else:
            rel.pop(key, None)
    return rel


def variety_containment(inner: LaurentIdeal, outer: LaurentIdeal, budget=None) -> bool:
    """Decide V(inner) <= V(outer): every generator of ``outer`` must lie in
    the radical of ``inner``."""
    if inner.context != outer.context:
        raise InputError("ring context mismatch")
    return all(inner.radical_contains(g, budget) for g in outer.generators)


def reduce_against_saturation(
    ideal: LaurentIdeal, f: LaurentPoly, order="grevlex", budget=None
) -> LaurentPoly:
    """Normal form of (the polynomialization of) f against the cached
    saturated basis; zero iff f lies in the saturated ideal."""
    ord_obj = order if isinstance(order, MonomialOrder) else order_from_tag(order)
    basis = [laurent_to_poly(g) for g in ideal.groebner_basis(ord_obj, budget)]
    nf = _reduce(laurent_to_poly(f), basis, ord_obj)
    return LaurentPoly(ideal.context, nf)
