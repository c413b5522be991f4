"""Cohomology jump loci of a free complex, computed and declared.

Two independent routes to the same locus are kept side by side:

  * ideal route: the coordinate-saturated jumping ideal of each degree, on
    which containment, codimension and emptiness are decided by Groebner
    computations;
  * pointwise route: specialize every differential at a torsion point and
    read off the cohomology rank by exact linear algebra over the
    cyclotomic-rational field,
        dim H^i = rank(i) - rank d^i(rho) - rank d^(i-1)(rho).

The membership test at a point is the definition of the locus, so the two
routes must agree everywhere; the test suite enforces the agreement on
random and torsion points, and nothing in this module collapses the
redundancy.

Propagation (nested loci in negative degrees, reverse-nested in nonnegative
ones, over [min(k_min, 0), max(k_max, 0)]) is checked ideal-theoretically
through radical membership, and only so: when minor enumeration hits the
size cap the check raises ResourceError instead of returning a verdict.
The links of the chain are listed once, by chain_links, for these computed
loci and for declared ones (verdict.profile_propagation).

Closed points of the character torus are modeled by TorsionPoint: one pair
(q, theta) per coordinate denoting the complex number q * e^(2*pi*i*theta),
with q a positive rational and theta a rational in [0, 1).  Negative radial
parts are folded into theta on construction, so representations are unique
and equality is exact.

A LociProfile assigns to each degree a finite union of translated subtori
(absent degrees mean the empty locus), with an optional source complex and
an optional Euler characteristic, which must be the source's when both are
given; ``verdict`` tests it.  Fixtures build a new profile for each complex
they build rather than transform one.  The survival interval of a degree-zero
component lives here too.  The torus (g = 0) and abelian (m = 0)
specializations of the verdict, re-derived through independent code paths
to cross-validate it against, are the tests' oracles in ``tests/oracles.py``.

Loci files are JSON: ring block, optional Euler characteristic, and per
degree a list of components, each a translate (one [radial, angle] pair of
rational strings per variable) plus an integer lattice given by rows.  The
loader saturates lattices and normalizes unions; components violating an
invariant (odd abelian projection) are rejected with the reason, either
strictly (raise) or collected into a report.  Points files are a JSON list
of such translates.  The ``codims`` and ``sample`` documents are built here.

Loci, point and fixture jobs, the verdict engine and library callers load
this module, never an ideal-route subcommand: ``serialize`` and ``laurent``
resolve the names that live here on first read, and ``RingContext``
imports TorsionPoint where it builds one.  At import it adds
``cyclotomic`` and ``lattices`` to what every job loads; the containment
checks import the Groebner engine when they run.  Traced functions are
called as module globals (``loci.membership_at_point``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cyclotomic import MAX_CYCLOTOMIC_ORDER, field_rank
from .errors import InputError, ResourceError, check_cap
from .lattices import LinearComponent, LinearUnion
from .laurent import RingContext, format_rational, parse_int, parse_rational
from .serialize import check_degree, render_json

LOCI_FORMAT = "jumploci-loci"
# Largest number of components in one loci file, checked before any is
# built: unions are normalized in one pairwise pass, and `codims` on point
# components took 0.44 s at 256, 1.7 s at 512 and 4.6 s at 1024.  Fixtures
# write 192.
MAX_LOCI_COMPONENTS = 256
# Largest |entry| of a component's Hermite lattice and kernel basis, the
# exponents of its characters and sampled points: `perversity` with
# polynomial exponents at MAX_EXPONENT took 2.8 s at 100 and 70 s at 1000.
MAX_LATTICE_ENTRY = 100
# Largest sum of |e| times the larger bit length of q's numerator and
# denominator over the radial powers q^e that evaluating a polynomial or a
# matrix at one point builds: one power took 42 ms at 10^6 bits, 1.4 s at 10^7.
MAX_RADIAL_POWER_BITS = 2**22


def _rank_at_point(complex_: FreeComplex, i: int, point: TorsionPoint) -> int:
    """rank d^i(rho), specialized and ranked once per (i, rho) in the
    complex's memo.  Exact: the specialization is a function of the matrix
    entries and the point alone, and TorsionPoint equality is equality of
    canonical coordinates."""
    return complex_.cached(
        ("point-rank", i, point), lambda: field_rank(complex_.differential(i).evaluate(point))
    )


def membership_at_point(
    complex_: FreeComplex, degree: int, point: TorsionPoint
) -> tuple[bool, int]:
    """(rho in V^degree, dim H^degree at rho), by exact specialization.
    Adjacent degrees share a differential, whose rank at rho is computed
    once."""
    complex_.ensure_valid()
    complex_.context.require(point)
    r = complex_.rank(degree)
    if r == 0:
        return False, 0
    dim = r - _rank_at_point(complex_, degree, point) - _rank_at_point(complex_, degree - 1, point)
    return dim > 0, dim


def chain_links(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The links of the propagation chain over [min(lo, 0), max(hi, 0)], in
    ascending order, as (i, inner, outer): V^inner must lie in V^outer.  The
    link (i, i+1) is V^i <= V^(i+1) below degree 0 and V^i >= V^(i+1) from
    degree 0 on."""
    return [(i, i, i + 1) if i < 0 else (i, i + 1, i) for i in range(min(lo, 0), max(hi, 0))]


class PropagationResult(NamedTuple):
    ok: bool
    provenance: str  # always "exact": a cap raises instead of degrading
    first_violation: tuple[int, int] | None
    checked_pairs: list[tuple[int, int, bool]]


def propagation_check(complex_: FreeComplex) -> PropagationResult:
    """Verify the nesting chain of jump loci link by link (chain_links);
    outside the degree range the jumping ideal is the unit ideal, so the
    locus there is empty.

    Requires the complex (and its dual) to have no negative-degree
    cohomology; that hypothesis is what makes the chain a theorem, so the
    check refuses to run when the hypothesis is decided false.  Containments
    are decided exactly via radical membership; a cap hit in the hypothesis
    gate or in an ideal raises ResourceError."""
    # imported here: the pointwise route never loads the Groebner engine
    from .groebner import variety_containment

    complex_.ensure_valid()
    if not complex_.check_assumption():
        raise InputError(
            "propagation requires vanishing negative-degree cohomology of "
            "the complex and its dual"
        )
    checked = []
    for i, inner, outer in chain_links(complex_.k_min, complex_.k_max):
        holds = variety_containment(complex_.jumping_ideal(inner), complex_.jumping_ideal(outer))
        checked.append((i, i + 1, holds))
    first = next(((i, j) for i, j, holds in checked if not holds), None)
    return PropagationResult(first is None, "exact", first, checked)


def radical_equality_pairs(complex_: FreeComplex) -> list[tuple[int, bool]]:
    """For every in-range degree i != 0, whether the Fitting and jumping
    ideals have equal radicals, that is, whether F_i lies in the radical of J_i."""
    # imported here: the pointwise route never loads the Groebner engine
    from .groebner import variety_containment

    complex_.ensure_valid()
    out = []
    for i in complex_.degrees():
        if i != 0:
            fit, jump = complex_.fitting_ideal(i), complex_.jumping_ideal(i)
            # J_i = F_(i-1)*F_i or (0) lies in F_i, so V(F_i) <= V(J_i) always holds
            out.append((i, variety_containment(jump, fit)))
    return out


def depth_bounds(complex_: FreeComplex) -> list[tuple[int, object, int, bool]]:
    """Per degree: (degree, codim of jumping ideal, required bound |degree|,
    bound holds).  In the ambient ring depth of an ideal equals its
    codimension, so this is the depth lower-bound check."""
    complex_.ensure_valid()
    rows = []
    for i in complex_.degrees():
        codim = complex_.jumping_ideal(i).codimension()
        rows.append((i, codim, abs(i), codim >= abs(i)))
    return rows


# -- torsion points and declared loci -------------------------------------------


class TorsionPoint:
    """Closed point of the character torus with coordinates q * e^(2*pi*i*theta),
    q a positive rational and theta a rational in [0, 1).  Constructors accept
    negative q and fold the sign into theta, so equality is exact."""

    __slots__ = ("context", "coords", "_table", "_hash")

    def __init__(self, context: RingContext, coords: Sequence[tuple[Fraction, Fraction]]):
        if len(coords) != context.num_vars:
            raise InputError("coordinate count does not match variable count")
        norm = []
        for q, theta in coords:
            q = Fraction(q)
            theta = Fraction(theta)
            if q == 0:
                raise InputError("radial part of a torsion point must be nonzero")
            if q < 0:
                q = -q
                theta += Fraction(1, 2)
            theta -= theta.numerator // theta.denominator  # reduce mod 1 into [0,1)
            norm.append((q, theta))
        self.context = context
        self.coords = tuple(norm)
        self._table = None
        self._hash = None

    def character_table(self) -> tuple[int, tuple[int, ...], tuple[Fraction, ...] | None]:
        """(L, steps, radials), computed once per point: L the angle order,
        steps the integers a_i = theta_i * L, and radials the q_i, or None
        when every q_i is 1.

        Soundness: theta_i = n_i/d_i in lowest terms with d_i | L, so
        a_i = n_i * (L/d_i) is an exact integer and sum k_i*theta_i * L =
        sum k_i*a_i for every integer vector k.  The character t^k at this
        point is prod q_i^k_i * e^(2*pi*i * sum k_i*theta_i), that is
        prod q_i^k_i * zeta_L^(sum k_i*a_i), and since zeta_L^L = 1 the
        exponent may be taken mod L.  All of this is integer arithmetic; the
        only Fractions are the radial powers, skipped when every q_i = 1."""
        if self._table is None:
            L = self.angle_order()
            steps = tuple(th.numerator * (L // th.denominator) for _, th in self.coords)
            radials = None if all(q == 1 for q, _ in self.coords) else tuple(q for q, _ in self.coords)
            self._table = (L, steps, radials)
        return self._table

    def check_radial_powers(self, polys: Iterable[LaurentPoly]) -> None:
        """Refuse, before any is built, the radial powers q^e that evaluating
        all of ``polys`` here builds when their bits exceed the one cap."""
        radials = self.character_table()[2]
        if radials is not None:
            sizes = [max(q.numerator.bit_length(), q.denominator.bit_length()) for q in radials]
            bits = sum(abs(e) * b for p in polys for exp in p.terms for e, b in zip(exp, sizes))
            check_cap(bits, MAX_RADIAL_POWER_BITS, "radial power bit length")

    def angle_order(self) -> int:
        """Least L with all angles in (1/L)Z; 1 when the point is rational."""
        return math.lcm(*(theta.denominator for _, theta in self.coords), 1)

    def __mul__(self, other: "TorsionPoint") -> "TorsionPoint":
        self.context.require(other)
        return TorsionPoint(
            self.context,
            [
                (q1 * q2, th1 + th2)
                for (q1, th1), (q2, th2) in zip(self.coords, other.coords)
            ],
        )

    def character(self, lattice_vector: Sequence[int]) -> tuple[Fraction, Fraction]:
        """The value of t^k here, k an integer vector, as (angle, radial):
        radial * e^(2*pi*i*angle) with angle in [0, 1) and radial > 0.  By
        character_table the angle is (sum k_i*a_i mod L) / L, and the radial
        part prod q_i^k_i is positive as every q_i is.  A nonzero complex
        number has one such polar form, so two values are equal exactly when
        their pairs are, whatever the orders of the points."""
        L, steps, radials = self.character_table()
        angle = Fraction(sum(k * a for k, a in zip(lattice_vector, steps)) % L, L)
        radial = Fraction(1)
        if radials is not None:
            for k, q in zip(lattice_vector, radials):
                if k:
                    radial *= q**k
        return angle, radial

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorsionPoint)
            and self.context == other.context
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        # kept: rank caches and sample sets hash a point many times
        if self._hash is None:
            self._hash = hash((self.context, self.coords))
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"({format_rational(q)},{format_rational(th)})" for q, th in self.coords)
        return f"TorsionPoint({parts})"


class LociProfile:
    """Per-degree declared loci, with an optional source complex and an
    optional Euler characteristic."""

    __slots__ = ("context", "loci", "source", "euler")

    def __init__(
        self,
        context: RingContext,
        loci: Mapping[int, LinearUnion],
        source: FreeComplex | None = None,
        euler: int | None = None,
    ):
        context.require(*loci.values())
        clean = {int(deg): union for deg, union in loci.items() if not union.is_empty()}
        if source is not None:
            context.require(source)
            chi = source.euler_characteristic()
            if euler is not None and euler != chi:
                raise InputError(f"declared Euler characteristic {euler} is not the complex's, {chi}")
            euler = chi
        self.context = context
        self.loci = clean
        self.source = source
        self.euler = euler

    def locus(self, degree: int) -> LinearUnion:
        if degree in self.loci:
            return self.loci[degree]
        return LinearUnion(self.context, [])

    def degrees(self) -> list[int]:
        return sorted(self.loci)

    def with_source(self, source: FreeComplex) -> "LociProfile":
        return LociProfile(self.context, self.loci, source=source, euler=self.euler)


# -- loci and points JSON formats ------------------------------------------------


def _parse_frac(s) -> Fraction:
    """A string, read by parse_rational, or a JSON integer: never a (rounded) float."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise InputError(f"malformed rational {s!r}: write rationals as strings, e.g. \"1/3\"")
    return parse_rational(s) if isinstance(s, str) else Fraction(s)


def _parse_pairs(value) -> list[tuple[Fraction, Fraction]]:
    """Point coordinates: a list of [radial, angle] rational pairs."""
    if not isinstance(value, list) or not all(isinstance(p, list) and len(p) == 2 for p in value):
        raise InputError(f"expected a list of [radial, angle] pairs, got {value!r}")
    return [(_parse_frac(q), _parse_frac(th)) for q, th in value]


def _parse_point(ctx: RingContext, value) -> TorsionPoint:
    """A point read from a file.  Its angle order is checked against the
    cyclotomic cap here, where outside input arrives: points derived from
    accepted ones (shifts, products) may have a larger order and are not
    refused."""
    point = TorsionPoint(ctx, _parse_pairs(value))
    check_cap(point.angle_order(), MAX_CYCLOTOMIC_ORDER, "cyclotomic order")
    return point


def _point_doc(point: TorsionPoint) -> list[list[str]]:
    """A point as written to files and reports: [radial, angle] strings."""
    return [[format_rational(q), format_rational(th)] for q, th in point.coords]


def _component_doc(c: LinearComponent) -> dict:
    """A component as written to loci files and codims reports."""
    return {"translate": _point_doc(c.translate), "lattice": [list(r) for r in c.lattice]}


def _parse_int(value) -> int:
    """An integer field of a JSON document: an int that is not a bool, or a
    string read by parse_int.  Anything else raises ValueError, so 1.5,
    2.0, true and false are refused rather than read as other integers."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return parse_int(value) if isinstance(value, str) else value


def _parse_lattice(rows) -> list[list[int]]:
    try:
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("a lattice is a list of rows")
        return [[_parse_int(x) for x in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed lattice {rows!r}") from exc


def dump_loci(profile: LociProfile) -> str:
    ctx = profile.context
    doc = {
        "format": LOCI_FORMAT,
        "ring": {
            "vars": list(ctx.var_names),
            "torus": ctx.torus_rank,
            "abelian": ctx.abelian_rank,
        },
        "loci": {
            str(deg): [_component_doc(c) for c in union.components]
            for deg, union in sorted(profile.loci.items())
        },
    }
    if profile.euler is not None:
        doc["euler"] = profile.euler
    return render_json(doc)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key (json.loads keeps the last)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _known_keys(block: dict, keys: set, where: str) -> None:
    """Refuse a key of ``block`` outside ``keys``: ``dump_loci`` writes none."""
    for key in block:
        if key not in keys:
            raise InputError(f"unknown key {key!r} in {where}")


def load_loci(text: str, strict: bool = True):
    """Parse a loci document.  Returns (profile, rejected) where rejected is
    a list of {degree, component, reason} records for refused components;
    with strict=True the first refusal raises instead.  Either way a repeated
    key, an unknown key outside a component and a ``format`` other than
    LOCI_FORMAT are refused (a document without one is accepted)."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, an integer over the digit limit or a repeated key
        raise InputError(f"malformed loci JSON: {exc}") from exc
    if not isinstance(doc, dict) or "ring" not in doc or "loci" not in doc:
        raise InputError("loci document needs 'ring' and 'loci' blocks")
    if doc.get("format", LOCI_FORMAT) != LOCI_FORMAT:
        raise InputError(f"loci document format {doc['format']!r} is not {LOCI_FORMAT!r}")
    _known_keys(doc, {"format", "ring", "loci", "euler"}, "the loci document")
    ring = doc["ring"]
    if isinstance(ring, dict):
        _known_keys(ring, {"vars", "torus", "abelian"}, "the ring block")
    try:
        if not isinstance(ring["vars"], list):  # RingContext would read "ab" as a, b; it checks each name
            raise TypeError("the variables are a list")
        ctx = RingContext(ring["vars"], _parse_int(ring["torus"]), _parse_int(ring["abelian"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed ring block: {ring!r}") from exc
    if not isinstance(doc["loci"], dict):
        raise InputError("the 'loci' block must map degrees to component lists")
    count = sum(len(comps) for comps in doc["loci"].values() if isinstance(comps, list))
    if count > MAX_LOCI_COMPONENTS:
        raise ResourceError(f"{count} loci components exceed the cap of {MAX_LOCI_COMPONENTS}")
    unions = {}
    rejected = []
    for key, comp_list in doc["loci"].items():
        try:
            degree = parse_int(key)
        except ValueError as exc:
            raise InputError(f"malformed degree key {key!r}") from exc
        check_degree(degree)
        if degree in unions:
            raise InputError(f"two loci keys name degree {degree}")
        if not isinstance(comp_list, list):
            raise InputError(f"degree {degree}: components must be a list")
        comps = []
        for k, comp in enumerate(comp_list):
            try:
                if not isinstance(comp, dict) or "translate" not in comp:
                    raise InputError("a component needs a 'translate' block")
                _known_keys(comp, {"translate", "lattice"}, "a component")
                translate = _parse_point(ctx, comp["translate"])
                lattice = _parse_lattice(comp.get("lattice", []))
                comp = LinearComponent(ctx, translate, lattice)
                big = max((abs(x) for row in comp.lattice + comp.kernel for x in row), default=0)
                check_cap(big, MAX_LATTICE_ENTRY, "lattice entry")
                comps.append(comp)
            except InputError as exc:
                if strict:
                    raise InputError(
                        f"degree {degree}, component {k}: {exc}"
                    ) from exc
                rejected.append({"degree": degree, "component": k, "reason": str(exc)})
        unions[degree] = LinearUnion(ctx, comps)
    euler = doc.get("euler")
    try:
        euler = _parse_int(euler) if euler is not None else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed euler characteristic {euler!r}") from exc
    profile = LociProfile(ctx, unions, euler=euler)
    return profile, rejected


def parse_points_file(text: str, ctx: RingContext) -> list[TorsionPoint]:
    """Points file: JSON list of points, each a list of [radial, angle]
    rational-string pairs."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise InputError(f"malformed points JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise InputError("points document must be a JSON list")
    return [_parse_point(ctx, entry) for entry in doc]


# -- report documents -------------------------------------------------------------


def codims_report(profile: LociProfile, rejected: list[dict]) -> dict:
    """The ``codims`` document, listing the ``rejected`` records of ``load_loci`` if any."""
    entries = []
    for deg in profile.degrees():
        union = profile.locus(deg)
        stats = {key: str(value) for key, value in union.codim_stats()._asdict().items()}
        components = [
            dict(_component_doc(c), **dict(zip(("codim", "codim_a", "codim_sa"), c.codims())))
            for c in union.components
        ]
        entries.append({"degree": deg, "components": components, **stats})
    doc = {"report": "codims", "degrees": entries}
    if rejected:
        doc["rejected_components"] = rejected
    return doc


def sample_report(cx: FreeComplex, points: Sequence[TorsionPoint], degrees: Sequence[int]) -> dict:
    entries = []
    for p in points:
        row = {"point": _point_doc(p), "memberships": {}}
        for d in degrees:
            member, dim = membership_at_point(cx, d, p)
            row["memberships"][str(d)] = {"member": member, "dim": dim}
        entries.append(row)
    return {"report": "sample", "points": entries}


# -- survival interval ---------------------------------------------------------


class SurvivalResult(NamedTuple):
    kernel_torus_rank: int  # m''
    kernel_abelian_rank: int  # g''
    predicted: tuple[int, int]  # [-m''-g'', g'']
    observed: list[int]
    matches: bool


def survival_interval(profile: LociProfile, component: LinearComponent) -> SurvivalResult:
    """Predicted degree interval in which a degree-zero component persists,
    from its annihilator lattice, compared against the observed degrees."""
    if not profile.locus(0).has_component(component):
        raise InputError("component is not a component of the degree-0 locus")
    g2 = component.codims()[1]
    m2 = component.kernel_torus_rank()
    predicted = (-m2 - g2, g2)
    observed = [deg for deg in profile.degrees() if profile.locus(deg).has_component(component)]
    expected = list(range(predicted[0], predicted[1] + 1))
    return SurvivalResult(m2, g2, predicted, observed, observed == expected)
