"""Exact multivariate Laurent polynomial arithmetic over the rationals.

A Laurent polynomial is stored as a dictionary mapping exponent vectors
(tuples of ints, possibly negative) to nonzero Fraction coefficients:

    t1^2 * t2^-1 - 3/2   ->   {(2, -1): Fraction(1), (0, 0): Fraction(-3, 2)}

The zero polynomial is the empty dict.  Zero coefficients are never stored,
so two polynomials are equal iff their term dicts are equal; this makes
equality and zero-testing exact.  Polynomials are not hashable.  Every
integer read from text is read by ``parse_int``, every rational by
``parse_rational``, and every one printed is printed by ``format_rational``.

Every value is attached to a RingContext fixing the number of variables,
their print names, and the torus/abelian split (the first ``torus_rank``
variables are torus coordinates, the remaining ``2 * abelian_rank`` are
abelian coordinates).  Mixing values from different contexts raises
InputError.

Closed points of the character torus are modeled by loci.TorsionPoint, whose
``values`` evaluates polynomials: ``laurent.TorsionPoint`` is resolved on
first read, and RingContext's point constructors import it when they run, so
a job that builds no point never compiles it.  The ring maps only fixtures
use, monomial substitutions and embeddings into a larger ring, live in ``fixtures``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError, ResourceError

Exponent = tuple[int, ...]

# Largest |exponent| of a term read by parse_poly.  Evaluating t^e at a
# point with a nonunit radial part q builds q^e exactly, so the cost grows
# with e: on the m2 Koszul complex with every t_i raised to e,
# `perversity --samples 40` took 0.4 s at e = 10^4, 8.7 s at 10^5 and did
# not end in 30 s at 10^6.  Fixture exponents stay at most MAX_COVER_SIZE.
MAX_EXPONENT = 10**4


def __getattr__(name: str):
    """``TorsionPoint``, imported from ``loci`` on first read and kept (PEP 562)."""
    if name != "TorsionPoint":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .loci import TorsionPoint

    globals()[name] = TorsionPoint
    return TorsionPoint


class RingContext:
    """Ambient Laurent ring data: variable names and the torus/abelian split."""

    __slots__ = ("num_vars", "var_names", "torus_rank", "abelian_rank")

    def __init__(self, var_names: Sequence[str], torus_rank: int, abelian_rank: int):
        names = tuple(var_names)
        if torus_rank < 0 or abelian_rank < 0:
            raise InputError("torus and abelian ranks must be nonnegative")
        if torus_rank + 2 * abelian_rank != len(names):
            raise InputError(
                f"need torus_rank + 2*abelian_rank == num_vars, got "
                f"{torus_rank} + 2*{abelian_rank} != {len(names)}"
            )
        if len(set(names)) != len(names):
            raise InputError("variable names must be pairwise distinct")
        for n in names:
            if not (isinstance(n, str) and n.isascii() and n.isidentifier()):
                raise InputError(f"invalid variable name {n!r}")
        self.num_vars = len(names)
        self.var_names = names
        self.torus_rank = torus_rank
        self.abelian_rank = abelian_rank

    @classmethod
    def torus(cls, m: int) -> "RingContext":
        """Pure torus context with default names t1..tm."""
        return cls([f"t{i + 1}" for i in range(m)], m, 0)

    @classmethod
    def abelian(cls, g: int) -> "RingContext":
        """Pure abelian context with default names t1..t(2g)."""
        return cls([f"t{i + 1}" for i in range(2 * g)], 0, g)

    @classmethod
    def mixed(cls, m: int, g: int) -> "RingContext":
        return cls([f"t{i + 1}" for i in range(m + 2 * g)], m, g)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingContext)
            and self.var_names == other.var_names
            and self.torus_rank == other.torus_rank
            and self.abelian_rank == other.abelian_rank
        )

    def __hash__(self) -> int:
        return hash((self.var_names, self.torus_rank, self.abelian_rank))

    def __repr__(self) -> str:
        return (
            f"RingContext(vars={','.join(self.var_names)}, "
            f"m={self.torus_rank}, g={self.abelian_rank})"
        )

    # -- element constructors -------------------------------------------------

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.const(1)

    def const(self, c) -> "LaurentPoly":
        return LaurentPoly(self, {(0,) * self.num_vars: Fraction(c)})

    def variable(self, i: int) -> "LaurentPoly":
        """The monomial t_i (0-based index)."""
        if not 0 <= i < self.num_vars:
            raise InputError(f"variable index {i} out of range")
        return self.monomial([int(k == i) for k in range(self.num_vars)])

    def monomial(self, exponent: Iterable[int], coeff=1) -> "LaurentPoly":
        return LaurentPoly(self, {tuple(int(e) for e in exponent): Fraction(coeff)})

    def identity_point(self) -> "TorsionPoint":
        return self.rational_point([1] * self.num_vars)

    def rational_point(self, values: Iterable) -> "TorsionPoint":
        # imported here: a job that builds no point never loads loci
        from .loci import TorsionPoint

        return TorsionPoint(self, [(Fraction(v), Fraction(0)) for v in values])

    def parse(self, text: str) -> "LaurentPoly":
        return parse_poly(self, text)

    def require(self, *values) -> None:
        """Raise InputError unless every value (a polynomial, point, matrix,
        complex, ideal, component, union or profile) belongs to this ring."""
        for v in values:
            if v.context is not self and v.context != self:
                raise InputError("ring context mismatch")


class LaurentPoly:
    """Immutable Laurent polynomial in canonical form (no zero terms)."""

    __slots__ = ("context", "terms")

    def __init__(self, context: RingContext, terms: Mapping[Exponent, Fraction]):
        clean = {}
        n = context.num_vars
        for exp, c in terms.items():
            if len(exp) != n:
                raise InputError("exponent length does not match variable count")
            if c:
                clean[tuple(exp)] = Fraction(c)
        self.context = context
        self.terms = clean

    # -- basic predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        zero_exp = (0,) * self.context.num_vars
        return self.terms == {zero_exp: Fraction(1)}

    # -- ring operations ------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.context, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return LaurentPoly(self.context, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            if len(self.terms) != 1:
                raise InputError("only monomials are invertible in the Laurent ring")
            ((exp, c),) = self.terms.items()
            inv = LaurentPoly(self.context, {tuple(-e for e in exp): 1 / c})
            return inv ** (-k)
        result = self.context.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            self.context.require(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.context.const(other)
        raise TypeError(f"cannot combine LaurentPoly with {type(other).__name__}")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.context.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    # -- semantics ------------------------------------------------------------

    def evaluate(self, point: "TorsionPoint") -> Cyclotomic:
        """Exact value at a torsion point, by ``TorsionPoint.values``: a Laurent
        monomial is defined at every point since all radial parts are nonzero."""
        return point.values([self])[0]

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)})"


def parse_rational(text: str) -> Fraction:
    """An optionally signed integer, p/q or decimal in ASCII digits, read by ``_parse_number``."""
    return _parse_number(Fraction, text, "rational", "p, p/q or a decimal")


def parse_int(text: str) -> int:
    """An optionally signed integer in ASCII digits, read by ``_parse_number``."""
    return _parse_number(int, text, "integer", "an integer")


def _parse_number(kind, text: str, what: str, shape: str):
    """kind(text), surrounding spaces allowed; InputError where kind raises, and where int
    or Fraction would read text unlike on some admitted Python or at no bounded cost: text
    outside ASCII (other scripts' digits), an underscore (int reads 1_0, Fraction from 3.11
    on), an exponent part (10^e) and a value too long to print."""
    try:
        if not text.isascii() or any(c in text for c in "_eE"):
            raise ValueError("a character outside ASCII, an underscore or an exponent part")
        q = kind(text)
        str(q.numerator), str(q.denominator)  # ValueError over Python's int-string digit limit
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise InputError(f"malformed {what} {shown}: write {shape} in ASCII digits, at most 4300 digits") from exc
    return q


def format_rational(q: Fraction) -> str:
    """str(q); ResourceError with the digit count where Python refuses to
    print an integer over its limit (4300 digits by default), which parsed
    numbers never pass but computed ones, such as products, can."""
    try:
        return str(q)
    except ValueError as exc:
        big = max(abs(q.numerator), q.denominator)
        digits = (big.bit_length() - 1) * 30102999 // 10**8  # below the digit count: the loop ends on it
        while 10**digits <= big:
            digits += 1
        raise ResourceError(f"a computed number of {digits} digits is too long to print") from exc


# -- text grammar ---------------------------------------------------------
#
# Signed sums of terms  c * v1^e1 * ... * vk^ek  with rational coefficients
# (p or p/q) and integer exponents; '*' separates factors, '^' introduces an
# exponent, whitespace is ignored.  A term may omit the coefficient (t1^2)
# or consist of a bare constant (-3/2).  parse(format(p)) == p.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str | None]]:
    """(kind, text) pairs, kind one of num, name and op, closed by the end
    sentinel ("end", None); a character outside the grammar raises."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise InputError(f"unexpected character {m.group(kind)!r} in polynomial")
        tokens.append((kind, m.group(kind)))
    tokens.append(("end", None))
    return tokens


def parse_poly(context: RingContext, text: str) -> LaurentPoly:
    """Parse the polynomial grammar; inverse of format_poly on canonical forms."""
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise InputError("empty polynomial text")
    var_index = {name: i for i, name in enumerate(context.var_names)}
    pos = 0
    terms: dict[Exponent, Fraction] = {}
    while tokens[pos][0] != "end":
        coeff = Fraction(1)
        while tokens[pos][1] in ("+", "-"):
            if tokens[pos][1] == "-":
                coeff = -coeff
            pos += 1
        if tokens[pos][0] == "end":
            raise InputError("dangling sign in polynomial")
        exp = [0] * context.num_vars
        while True:
            kind, tok = tokens[pos]
            pos += 1
            if kind == "num":
                coeff *= parse_rational(tok)
            elif kind == "name":
                if tok not in var_index:
                    raise InputError(f"unknown variable {tok!r}")
                power = 1
                if tokens[pos][1] == "^":
                    psign = 1
                    if tokens[pos + 1][1] == "-":
                        psign = -1
                        pos += 1
                    kind, digits = tokens[pos + 1]
                    if kind != "num" or "/" in digits:
                        raise InputError("expected integer exponent after '^'")
                    pos += 2
                    try:
                        power = psign * int(digits)
                    except ValueError as exc:  # more digits than int() reads
                        raise ResourceError(
                            f"exponent of {len(digits)} digits exceeds the cap of {MAX_EXPONENT}"
                        ) from exc
                exp[var_index[tok]] += power
            elif kind == "end":
                raise InputError("expected a factor after '*'")
            else:
                raise InputError(f"unexpected token {tok!r} in term")
            kind, tok = tokens[pos]
            if kind == "end" or tok in ("+", "-"):
                break
            if tok != "*":
                raise InputError(f"unexpected token {tok!r} after a factor; factors are joined by '*'")
            pos += 1
        for e in exp:
            if abs(e) > MAX_EXPONENT:
                raise ResourceError(f"exponent {e} exceeds the cap of {MAX_EXPONENT} in absolute value")
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(context, terms)


def format_poly(p: LaurentPoly) -> str:
    """Canonical rendering: terms in descending lex order of exponents,
    explicit rational coefficients, '*'-separated variable powers."""
    if p.is_zero():
        return "0"
    names = p.context.var_names
    chunks = []
    for idx, (exp, c) in enumerate(sorted(p.terms.items(), reverse=True)):  # exponents are unique
        factors = [f"{names[i]}^{e}" if e != 1 else names[i] for i, e in enumerate(exp) if e]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([format_rational(mag)] + factors)
        else:
            body = format_rational(mag)
        if idx == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(chunks)
