"""Declared loci and torsion points: the objects, files and reports of the
declared-loci route.

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
component and the torus (g = 0) and abelian (m = 0) specializations of the
verdict live here too.  The specializations are re-derived through
independent code paths (plain lattice ranks, no shared codimension helpers)
so the general verdict can be cross-validated against them.

Loci files are JSON: ring block, optional Euler characteristic, and per
degree a list of components, each a translate (one [radial, angle] pair of
rational strings per variable) plus an integer lattice given by rows.  The
loader saturates lattices and normalizes unions; components violating an
invariant (odd abelian projection) are rejected with the reason, either
strictly (raise) or collected into a report.  Points files are a JSON list
of such translates.  The ``codims`` and ``sample`` documents are built here.

Only the jobs that read, write or build loci and points load this module:
``serialize`` and ``laurent`` resolve the names that moved here on first
read, ``RingContext`` imports TorsionPoint where it builds one, and
``sampling``, which only verdict jobs load, imports it at its top.  So the
ideal route (``validate``, ``jump-ideals``, ``exactness``, the library
certifications) never compiles it.  Traced functions are called through
their module (``loci.membership_at_point``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import loci
from .cyclotomic import MAX_CYCLOTOMIC_ORDER
from .errors import InputError, ResourceError, check_cap
from .laurent import RingContext, format_rational
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
        # imported here: a job that reads only points must not load the lattices
        from .lattices import LinearUnion

        return LinearUnion(self.context, [])

    def degrees(self) -> list[int]:
        return sorted(self.loci)

    def with_source(self, source: FreeComplex) -> "LociProfile":
        return LociProfile(self.context, self.loci, source=source, euler=self.euler)


# -- loci and points JSON formats ------------------------------------------------


def _parse_frac(s) -> Fraction:
    """A string or, as for _parse_int, an integer: never a (rounded) float."""
    try:
        return Fraction(s if isinstance(s, str) else _parse_int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {s!r}: write rationals as strings, e.g. \"1/3\"") from exc


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
    return [[str(q), str(th)] for q, th in point.coords]


def _component_doc(c: LinearComponent) -> dict:
    """A component as written to loci files and codims reports."""
    return {"translate": _point_doc(c.translate), "lattice": [list(r) for r in c.lattice]}


def _parse_int(value) -> int:
    """An integer field of a JSON document: an int that is not a bool, or a
    string holding an integer.  Anything else raises ValueError, so 1.5,
    2.0, true and false are refused rather than read as other integers."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


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
    # imported here: a job that reads only points never loads the lattices
    from .lattices import LinearComponent, LinearUnion

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
            degree = int(key)
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
            member, dim = loci.membership_at_point(cx, d, p)
            row["memberships"][str(d)] = {"member": member, "dim": dim}
        entries.append(row)
    return {"report": "sample", "points": entries}


# -- survival and independent specializations (cross-validation code paths) ----


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


def torus_specialization_verdict(profile: LociProfile) -> bool:
    """Pure-torus re-derivation: loci empty in positive degrees and plain
    codimension (annihilator rank) at least -i in nonpositive degrees.
    Deliberately avoids the codim_stats helpers."""
    if profile.context.abelian_rank != 0:
        raise InputError("torus specialization applies to g = 0 profiles only")
    for deg, union in profile.loci.items():
        if deg > 0 and union.components:
            return False
        if deg <= 0:
            plain = min((c.rank for c in union.components), default=math.inf)
            if plain < -deg:
                return False
    return True


def abelian_specialization_verdict(profile: LociProfile) -> bool:
    """Pure-abelian re-derivation of the codimension bound: plain
    codimension of V^i at least |2i| for every i."""
    if profile.context.torus_rank != 0:
        raise InputError("abelian specialization applies to m = 0 profiles only")
    for deg, union in profile.loci.items():
        plain = min((c.rank for c in union.components), default=math.inf)
        if plain < 2 * abs(deg):
            return False
    return True
