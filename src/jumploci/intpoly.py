"""The integer polynomial kernel shared by minors and Groebner bases.

A ``Poly`` is a raw dict {exponent tuple: int} with nonnegative exponents
and nonzero integer coefficients.  Minors, generic ranks and jumping-ideal
products (``complexes``) and Buchberger's algorithm (``groebner``) all run
on it; it lives apart from the Groebner engine so that a job that only
ranks or specializes matrices does not load that engine.
"""

from __future__ import annotations

import math
from operator import add, sub

Poly = dict  # {tuple[int,...]: int}


def primitive_part(p: Poly) -> Poly:
    """The nonzero p up to units of the Laurent ring, canonically: minimum
    exponent 0 in each variable, coprime integer coefficients, positive
    lex-leading coefficient."""
    mins = [min(col) for col in zip(*p)]
    content = math.gcd(*p.values())
    if p[max(p)] < 0:
        content = -content
    return {tuple(map(sub, e, mins)): c // content for e, c in p.items()}


def add_multiple(target: Poly, c: int, shift, g: Poly) -> None:
    """target += c * x^shift * g in place, c nonzero, dropping cancelled
    terms: the one multiply-accumulate loop of the integer kernel."""
    for exp, gc in g.items():
        term = tuple(map(add, exp, shift))
        s = target.get(term, 0) + c * gc
        if s:
            target[term] = s
        else:
            del target[term]


def laurent_to_polys(polys) -> list[Poly]:
    """``polys`` (Laurent polynomials) times one unit of the Laurent ring, as
    integer polynomials with the same terms: the lcm of their denominators
    times the monomial that brings each variable's minimum exponent over all
    of them to 0.  On a matrix row this is a row operation, which multiplies
    every minor through the row by that unit; scaling entries one by one is
    not.  This is the one place where a Fraction coefficient becomes an
    integer."""
    terms = [term for p in polys for term in p.terms.items()]
    mins = [min(col) for col in zip(*(e for e, _ in terms))]
    den = math.lcm(*(c.denominator for _, c in terms))
    return [
        {tuple(map(sub, e, mins)): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
        for p in polys
    ]
