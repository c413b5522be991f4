"""Ideal arithmetic in the Laurent ring via polynomial-ring Groebner bases.

A Laurent ideal is represented by its contraction to the polynomial ring,
saturated with respect to the product of all variables.  Generators are
cleared of monomial factors (units).  When the variety of the resulting
polynomial ideal misses every coordinate hyperplane, that ideal is already
saturated; otherwise one auxiliary variable y and the relation
1 - y*t1*...*tN are adjoined, a Groebner basis is computed in an
elimination order for y, and the y-free part is kept.  Each LaurentIdeal
computes the reduced grevlex basis of its saturation once, in
``groebner_basis``, and answers every question from that one cache:

  * radical membership f in sqrt(I): 1 in I_sat + (1 - z*f) with a fresh z,
    a Buchberger run that extends the cached basis by 1 - z*f;
  * codimension: the least number of variables meeting the support of every
    lead monomial of the cached basis (a least hitting set);
  * variety containment V(I) <= V(J): every generator of J in sqrt(I).

The engine is Buchberger's algorithm with the sugar selection strategy,
over integer coefficients with fraction-free reduction: S-polynomials
cross-multiply by the lead cofactors, reduction is pseudo-division with
content removal, and every polynomial the engine keeps is primitive with a
positive lead coefficient.  S-pairs known to reduce to zero are never
reduced: the Gebauer-Moeller criteria B, M and F and Buchberger's
coprime-lead (product) criterion delete them (see ``buchberger``).
Computations abort with ResourceError once the S-pair budget, the module
constant SPAIR_BUDGET, is exhausted.  The budget counts S-pairs reduced;
pairs deleted by a criterion are not counted.  It counts pairs, not time,
so it does not bound the run time of a slow reduction.

Internally polynomials are the integer polynomials of the kernel in
``complexes`` (``Poly``, raw dicts {exponent tuple: int}), from the minors
to the reduced bases; the number of variables travels alongside because
auxiliary variables extend the ring temporarily.
``complexes.laurent_to_polys`` is the one place where a Fraction
coefficient becomes an integer.  This engine is loaded only by jobs that
ask an ideal question: ``complexes`` imports it where an ideal is made and
``loci`` where containment is decided.
"""

from __future__ import annotations

import heapq
import math
from operator import ge, sub
from typing import Callable, NamedTuple

from .errors import InputError, ResourceError
# the integer kernel, whose names this module keeps public (primitive_part
# only for its callers)
from .complexes import Poly, add_multiple, laurent_to_polys, primitive_part
from .laurent import LaurentPoly

SPAIR_BUDGET = 200_000  # S-pairs one buchberger call may reduce, read at call time


# -- monomial orders --------------------------------------------------------


def _grevlex_key(exp):
    return (sum(exp),) + tuple(-e for e in reversed(exp))


class _KeyMemo(dict):
    """exponent -> order key, computed on first lookup."""

    __slots__ = ("_key",)

    def __init__(self, key):
        super().__init__()
        self._key = key

    def __missing__(self, exp):
        k = self[exp] = self._key(exp)
        return k


class MonomialOrder(NamedTuple):
    """A term order as its sort key on exponent tuples: larger key, larger monomial."""

    name: str
    key: Callable


def elimination_order(block: tuple[int, ...]) -> MonomialOrder:
    """grevlex on the variables of ``block``, then grevlex on the others."""

    def key(exp):
        rest = tuple(e for i, e in enumerate(exp) if i not in block)
        return _grevlex_key(tuple(exp[i] for i in block)) + _grevlex_key(rest)

    return MonomialOrder("elim", key)


GREVLEX = MonomialOrder("grevlex", _grevlex_key)


# -- raw polynomial helpers -------------------------------------------------


def _lead(p: Poly, order: MonomialOrder):
    exp = max(p, key=order.key)
    return exp, p[exp]


def _normalize(p: Poly, order: MonomialOrder) -> Poly:
    """The primitive part of the nonzero p, with positive leading coefficient."""
    content = math.gcd(*p.values())
    if p[max(p, key=order.key)] < 0:
        content = -content
    return {e: c // content for e, c in p.items()}


def _reduce(p: Poly, basis: list[Poly], order: MonomialOrder, leads: list,
            memo: dict | None = None, remainder: Poly | None = None) -> Poly:
    """Fraction-free full reduction of p against basis (tail terms reduced
    too): a positive rational multiple of the normal form, with integer
    coefficients.  ``remainder`` holds terms already final, placed in the
    result before p is reduced and scaled along with it.

    The basis must be as ``_normalize`` returns it and ``leads[k]`` the lead
    term (exponent, coefficient) of ``basis[k]``.  To cancel the lead c*x^e
    by g with lead gc*x^f, work and remainder are multiplied by gc/d with
    d = gcd(c, gc), (c/d)*x^(e-f)*g is subtracted, and both are divided by
    their common content.  Every scale is positive, so work and remainder
    stay positive multiples of what the division over Q holds: the same
    divisors are chosen, and the result has the support of the rational
    normal form.

    Each term is cancelled by the basis element of least index whose lead
    divides it.  ``memo`` maps an exponent to that index (-1 for none) and
    to the number of leads it was checked against, so only leads appended
    since the last check are scanned.  A caller may share one memo across
    calls as long as it only appends to basis and leads: the first divisor
    among the first n leads stays the first divisor among any longer
    prefix, so the divisor chosen, and every intermediate polynomial, is
    the one a full scan would choose.
    """
    if memo is None:
        memo = {}
    key = order.key
    work = dict(p)
    remainder = {} if remainder is None else dict(remainder)
    checked_all = len(leads)
    while work:
        exp = max(work, key=key)
        coeff = work[exp]
        k, checked = memo.get(exp, (-1, 0))
        if k < 0 and checked < checked_all:
            for k in range(checked, checked_all):
                if all(map(ge, exp, leads[k][0])):
                    break
            else:
                k = -1
            memo[exp] = (k, checked_all)
        if k < 0:
            remainder[exp] = coeff
            del work[exp]
            continue
        gexp, gcoeff = leads[k]
        shift = tuple(map(sub, exp, gexp))
        d = math.gcd(coeff, gcoeff)
        scale = gcoeff // d
        if scale != 1:
            for term in work:
                work[term] *= scale
            for term in remainder:
                remainder[term] *= scale
        add_multiple(work, -(coeff // d), shift, basis[k])
        if scale != 1:
            content = math.gcd(*work.values(), *remainder.values())
            if content > 1:
                for term in work:
                    work[term] //= content
                for term in remainder:
                    remainder[term] //= content
    return remainder


def _spoly(f: Poly, g: Poly, f_lead, g_lead) -> Poly:
    # S(f,g) = (gc/d) (lcm/lt f) f - (fc/d) (lcm/lt g) g with d = gcd(fc, gc),
    # given the lead terms (exponent, coefficient) of the integer
    # polynomials f and g; with fc, gc > 0 this is fc*gc/d times the
    # rational S-polynomial, a positive multiple
    fexp, fc = f_lead
    gexp, gc = g_lead
    d = math.gcd(fc, gc)
    lcm_exp = tuple(map(max, fexp, gexp))
    out: Poly = {}
    add_multiple(out, gc // d, tuple(map(sub, lcm_exp, fexp)), f)
    add_multiple(out, -(fc // d), tuple(map(sub, lcm_exp, gexp)), g)
    return out


def _is_constant(p: Poly) -> bool:
    return len(p) == 1 and not any(next(iter(p)))


def buchberger(generators: list[Poly], order: MonomialOrder, start=()) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by ``start`` and
    ``generators``, where ``start`` is a reduced basis for ``order`` as this
    function returns it: ``buchberger(G, order, start=B)`` equals
    ``buchberger(B + G, order)``.

    Deterministic for a fixed order: input generators are canonically
    sorted, S-pairs are processed in sugar order with the basis indices as
    tie-breakers, and the final basis is inter-reduced, content normalized
    and sorted by leading monomial.  The unit ideal returns [1] as soon as
    a constant appears; a constant generator returns it before any
    generator is normalized (it would sort first and reduce to itself).

    Coefficients are integers throughout.  Buchberger's algorithm sees each
    polynomial only up to a nonzero scalar: pairs and sugar depend on lead
    exponents alone, ``_spoly`` and ``_reduce`` return positive multiples
    of what the same steps give over Q (same supports, same zero and
    constant tests), and ``_normalize`` picks one representative of each
    kept polynomial.  So the pairs, the sugar, the unit-ideal exits and the
    reduced basis are those of the computation over Q.

    Pairs are managed by the UPDATE procedure of Becker and Weispfenning
    (Groebner Bases, GTM 141, 1993) for the criteria of Gebauer and Moeller
    (J. Symbolic Comput. 6, 1988).  With T(f, g) the lcm of the lead
    monomials of f and g, when h joins the basis:

      * B: a queued pair (f, g) is deleted if lead(h) divides T(f, g) and
        T(f, h) != T(f, g) != T(g, h);
      * M: a new pair (g, h) is dropped if the lcm of another new pair
        strictly divides T(g, h);
      * F and the product criterion: of the new pairs sharing an lcm, one
        is kept (least sugar, then least index), none if any of them has
        coprime leads;
      * an element whose lead lead(h) divides gets no more new pairs.

    Soundness.  S(f, g) reduces to zero if the leads are coprime.  If
    lead(h) divides T(f, g), S(f, g) is a combination with monomial
    multipliers of S(f, h) and S(h, g), so standard representations of
    those two give one of S(f, g) (the chain criterion).  B, M and the last
    rule are this chain through h, through the other new pair's element,
    and through h again; F is the chain with equal lcms.  Gebauer and
    Moeller order the deletions so that no argument relies on a pair that
    is itself deleted: every deleted S-polynomial has a standard
    representation through pairs still processed, and the loop ends with a
    Groebner basis of the same ideal.  The arguments use standard
    representations over the elements added so far, so reducing modulo all
    of them, redundant ones included, keeps them valid.  Start elements
    open the basis unreduced and no pair of two of them is formed: B is a
    Groebner basis, so each such S-polynomial reduces to zero over B and has
    a standard representation over the elements added so far, which is all
    the deletions rely on.  The reduced Groebner basis is unique, and a
    unit ideal always produces a constant, which is returned as [1]: the
    basis, the unit-ideal decision and every report built on them do not
    depend on which pairs are processed.  How many are does, and with it
    whether the budget runs out.

    The S-pair budget counts pairs reduced.  A pair deleted by a criterion
    is skipped when it leaves the queue and is not counted.
    """
    limit = SPAIR_BUDGET
    for g in generators:
        if _is_constant(g):
            return [{next(iter(g)): 1}]
    order = order._replace(key=_KeyMemo(order.key).__getitem__)  # a memo for this call
    key = order.key
    gens = [_normalize(g, order) for g in generators if g]
    gens.sort(key=lambda g: (key(_lead(g, order)[0]), sorted(g.items())))
    basis: list[Poly] = list(start)
    leads: list[tuple] = [_lead(g, order) for g in basis]  # leads[k] == _lead(basis[k], order)
    sugars: list[int] = [sum(lead[0]) for lead in leads]
    active: list[int] = list(range(len(basis)))  # elements whose lead no other lead divides
    pairs: list[tuple[int, int, int]] = []  # heap of (sugar, i, j)
    queued: dict[tuple[int, int], tuple] = {}  # undeleted (i, j) -> T(i, j)
    divisors: dict[tuple, tuple[int, int]] = {}  # _reduce's memo over basis, which only grows

    def add_poly(p: Poly, sugar: int):
        k = len(basis)
        p = _normalize(p, order)
        hexp = max(p, key=key)
        basis.append(p)
        leads.append((hexp, p[hexp]))
        sugars.append(sugar)
        hdeg = sum(hexp)
        lcms = [tuple(map(max, lead[0], hexp)) for lead in leads]
        for (i, j), lcm in list(queued.items()):  # criterion B
            if lcm != lcms[i] and lcm != lcms[j] and all(map(ge, lcm, hexp)):
                del queued[i, j]
        new = {}  # lcm -> (sugar, i) of the new pair kept for it, None if coprime
        for i in active:
            iexp = leads[i][0]
            lcm = lcms[i]
            lcm_deg = sum(lcm)
            if lcm_deg == sum(iexp) + hdeg:
                new[lcm] = None
            elif new.get(lcm, ()) is not None:
                pair = (max(sugars[i] + lcm_deg - sum(iexp), sugar + lcm_deg - hdeg), i)
                new[lcm] = min(new.get(lcm, pair), pair)
        # an lcm can only be divided by one of lower degree (criterion M)
        by_degree = sorted(new, key=sum)
        for idx, lcm in enumerate(by_degree):
            if new[lcm] is None or any(all(map(ge, lcm, low)) for low in by_degree[:idx]):
                continue
            s, i = new[lcm]
            heapq.heappush(pairs, (s, i, k))
            queued[i, k] = lcm
        active[:] = [i for i in active if not all(map(ge, leads[i][0], hexp))] + [k]

    for g in gens:
        g = _reduce(g, basis, order, leads, divisors)
        if _is_constant(g):
            return [_normalize(g, order)]
        if g:
            add_poly(g, sum(max(g, key=key)))

    processed = 0
    while pairs:
        sugar, i, j = heapq.heappop(pairs)
        if queued.pop((i, j), None) is None:
            continue  # deleted by criterion B after it was queued
        processed += 1
        if processed > limit:
            raise ResourceError(
                f"S-pair budget of {limit} exceeded during Groebner basis computation"
            )
        s = _spoly(basis[i], basis[j], leads[i], leads[j])
        s = _reduce(s, basis, order, leads, divisors)
        if _is_constant(s):
            return [_normalize(s, order)]
        if s:
            add_poly(s, sugar)

    # Minimalize: no lead divides an active element's lead.  Earlier leads do
    # not, since each element is reduced against them before it is added;
    # later ones would have made it inactive.
    kept = sorted(active, key=lambda k: key(leads[k][0]))
    minimal = [basis[k] for k in kept]
    kept_leads = [leads[k] for k in kept]
    # Inter-reduce tails, each against all of minimal with its lead placed in
    # the remainder first.  No other kept lead divides that lead, and a lead
    # divides no smaller monomial, so every tail term gets the divisor it
    # gets against the others alone; one memo over minimal serves them all.
    divisors = {}
    reduced = []
    for g, (gexp, gcoeff) in zip(minimal, kept_leads):
        tail = {e: c for e, c in g.items() if e != gexp}
        r = _reduce(tail, minimal, order, kept_leads, divisors, {gexp: gcoeff})
        reduced.append(_normalize(r, order))
    reduced.sort(key=lambda g: key(max(g, key=key)), reverse=True)
    return reduced


# -- Laurent <-> polynomial conversion ---------------------------------------


def laurent_to_poly(p: LaurentPoly) -> Poly:
    """p times a unit (``laurent_to_polys``), which leaves saturated ideals
    and radical membership unchanged."""
    return laurent_to_polys([p])[0]


def _pad(p: Poly, extra: int) -> Poly:
    return {exp + (0,) * extra: c for exp, c in p.items()}


def _is_unit_basis(basis: list[Poly]) -> bool:
    """Whether a reduced basis from ``buchberger`` is that of the unit ideal."""
    return len(basis) == 1 and _is_constant(basis[0])


def _saturate_by_elimination(polys: list[Poly], n: int) -> list[Poly]:
    """The reduced grevlex basis of (polys) : (t1*...*tN)^inf: the y-free
    part, as it stands, of the reduced basis of (polys, 1 - y*t1*...*tN) in
    an order that eliminates y and is grevlex on y-free monomials."""
    ext = [_pad(p, 1) for p in polys]
    rel = {(0,) * (n + 1): 1, (1,) * (n + 1): -1}
    basis = buchberger(ext + [rel], elimination_order((n,)))
    return [{e[:-1]: c for e, c in g.items()} for g in basis if all(e[n] == 0 for e in g)]


def _misses_coordinate_hyperplanes(polys: list[Poly], n: int) -> bool:
    """Whether every restriction t_i = 0 of the ideal (polys) is the unit
    ideal, i.e. 1 lies in (polys) + (t_i) for each i."""
    return all(
        _is_unit_basis(buchberger([{e: c for e, c in p.items() if not e[i]} for p in polys], GREVLEX))
        for i in range(n)
    )


def _saturate(polys: list[Poly], n: int) -> list[Poly]:
    """The reduced grevlex basis of (polys) : (t1*...*tN)^inf in n
    variables; [] for the zero ideal."""
    # Fast path.  Let I = (polys) and u = t1*...*tN.  If 1 = f_i + a_i*t_i
    # with f_i in I for every i, multiplying these N identities gives
    # 1 = f + a*u with f in I: u is a unit modulo I.  (Geometrically, V(I)
    # misses every coordinate hyperplane, so V(I + (u)) is empty and the
    # Nullstellensatz puts 1 in I + (u); see Cox, Little and O'Shea, Ideals,
    # Varieties, and Algorithms, on the Nullstellensatz and on ideal
    # quotients and saturation.)  Then g*u^k in I gives g = g*(f + a*u)^k,
    # which is g*a^k*u^k, hence 0, modulo I: I : u^inf = I, and the
    # elimination is not needed.  A restriction that is not the unit ideal,
    # the zero ideal included, leaves the question to the exact elimination.
    if _misses_coordinate_hyperplanes(polys, n):
        return buchberger(polys, GREVLEX)
    return _saturate_by_elimination(polys, n)


# -- LaurentIdeal ------------------------------------------------------------


class LaurentIdeal:
    """Finitely generated ideal of the Laurent ring with the Groebner basis of
    its coordinate saturation cached.  Immutable; the cache is write-once."""

    __slots__ = ("context", "generators", "_basis")

    def __init__(self, context: RingContext, generators):
        gens = tuple(generators)
        if not all(isinstance(g, LaurentPoly) for g in gens):
            raise InputError("ideal generators must be Laurent polynomials")
        context.require(*gens)
        self.context = context
        self.generators = gens
        self._basis = None

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"LaurentIdeal({gens})"

    def groebner_basis(self) -> tuple[LaurentPoly, ...]:
        """Reduced grevlex Groebner basis of the polynomial-ring saturation
        by t1*...*tN; (1,) for the unit ideal, () for the zero ideal."""
        if self._basis is None:
            polys = [laurent_to_poly(g) for g in self.generators if not g.is_zero()]
            self._basis = _saturate(polys, self.context.num_vars)
        return tuple(LaurentPoly(self.context, g) for g in self._basis)

    def is_unit_ideal(self) -> bool:
        if self._basis is None:
            self.groebner_basis()
        return _is_unit_basis(self._basis)

    def radical_contains(self, f: LaurentPoly) -> bool:
        """Whether f lies in the radical: whether the cached basis extended by
        1 - z*f, z a new last variable, is the unit ideal.  f = 0 makes that
        relation 1; the zero ideal leaves it alone, which is no unit ideal."""
        self.context.require(f)
        if self.is_unit_ideal():
            return True
        # 1 - z*f with z the last variable; no term of z*f is constant
        rel = {exp + (1,): -c for exp, c in laurent_to_poly(f).items()}
        rel[(0,) * (self.context.num_vars + 1)] = 1
        return _is_unit_basis(buchberger([rel], GREVLEX, start=[_pad(p, 1) for p in self._basis]))

    def codimension(self):
        """N minus the Krull dimension of the saturated ideal; math.inf for
        the unit ideal (empty locus), 0 for the zero ideal (empty basis).
        That is the codimension of the lead-term ideal, whose minimal primes
        are generated by variables (Cox, Little and O'Shea, Ideals,
        Varieties, and Algorithms, section 9.1): the least number of
        variables meeting the support of every lead monomial."""
        if self.is_unit_ideal():
            return math.inf
        leads = [max(g, key=GREVLEX.key) for g in self._basis]
        return _least_hitting_set([frozenset(i for i, e in enumerate(lead) if e) for lead in leads])


def _least_hitting_set(supports: list[frozenset[int]]) -> int:
    """The least number of indices meeting every set in ``supports`` (none
    empty), by breadth-first search over the sets still missed, branching on
    the indices of a smallest one: every hitting set holds one of them."""
    level, size = {frozenset(supports)}, 0
    while frozenset() not in level:
        level = {frozenset(s for s in missed if i not in s) for missed in level for i in min(missed, key=len)}
        size += 1
    return size


def variety_containment(inner: LaurentIdeal, outer: LaurentIdeal) -> bool:
    """Decide V(inner) <= V(outer): every generator of ``outer`` must lie in
    the radical of ``inner``."""
    inner.context.require(outer)
    return all(inner.radical_contains(g) for g in outer.generators)
