"""File formats and report documents.

Complex files are structured text, one document per complex:

    ring vars=t1,t2 torus=2 abelian=0
    degrees -2..0
    ranks 1,2,1
    differential -2
    -t2 + 1
    t1 - 1
    differential -1
    t1 - 1, t2 - 1

After a ``differential i`` header come rank(i+1) lines, each holding
rank(i) comma-separated entries in the polynomial grammar (rows = target
coordinates).  Blank lines and ``#`` comments are ignored.  Loading is
strict: shapes, unknown variables and the complex identity d.d = 0 are all
checked and reported with line numbers where possible.

Loci files are JSON: ring block, optional Euler characteristic, and per
degree a list of components, each a translate (one [radial, angle] pair of
rational strings per variable) plus an integer lattice given by rows.  The
loader saturates lattices and normalizes unions; components violating an
invariant (odd abelian projection) are rejected with the reason, either
strictly (raise) or collected into a report.

Reports are plain dicts rendered to deterministic text or JSON: keys are
sorted, generators are listed in sorted canonical string form, and sampled
verdicts always carry their seed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from . import loci
from .complexes import FreeComplex, Matrix
from .cyclotomic import MAX_CYCLOTOMIC_ORDER
from .errors import InputError, ResourceError, check_cap
from .groebner import LaurentIdeal
from .lattices import LinearComponent, LinearUnion
from .laurent import RingContext, TorsionPoint, format_poly
from .verdict import LociProfile, PerversityReport

LOCI_FORMAT = "jumploci-loci"
# Largest |degree| read from a file or the command line: the verdict's
# conditions, jump-ideals and sample hold a row per degree up to the
# farthest one, so their cost grows with the degree.
MAX_DEGREE = 1000
# Largest number of components in one loci file, checked before any is
# built: unions are normalized pairwise, and `codims` on point components
# took 1.6 s at 256, 5.8 s at 512 and 425 s at 4000.  Fixtures write 192.
MAX_LOCI_COMPONENTS = 256
# Largest |entry| of a component's Hermite lattice and kernel basis, the
# exponents of its characters and sampled points: `perversity` with
# polynomial exponents at MAX_EXPONENT took 2.8 s at 100 and 70 s at 1000.
MAX_LATTICE_ENTRY = 100


def check_degree(degree: int) -> int:
    """``degree``, refused with ResourceError beyond MAX_DEGREE."""
    if abs(degree) > MAX_DEGREE:
        raise ResourceError(f"degree {degree} exceeds the cap of {MAX_DEGREE} in absolute value")
    return degree


# -- complex text format -------------------------------------------------------


def dump_complex(cx: FreeComplex) -> str:
    ctx = cx.context
    lines = [
        f"ring vars={','.join(ctx.var_names)} torus={ctx.torus_rank} abelian={ctx.abelian_rank}",
        f"degrees {cx.k_min}..{cx.k_max}",
        f"ranks {','.join(str(r) for r in cx.ranks)}",
    ]
    for i in range(cx.k_min, cx.k_max):
        lines.append(f"differential {i}")
        mat = cx.differential(i)
        for row in mat.entries:
            lines.append(", ".join(format_poly(e) for e in row))
    return "\n".join(lines) + "\n"


def _parse_ring_line(line: str) -> RingContext:
    fields = {}
    for chunk in line.split()[1:]:
        if "=" not in chunk:
            raise InputError(f"malformed ring field {chunk!r}")
        key, value = chunk.split("=", 1)
        fields[key] = value
    try:
        names = fields["vars"].split(",")
        torus = int(fields["torus"])
        abelian = int(fields["abelian"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"malformed ring line: {line!r}") from exc
    return RingContext(names, torus, abelian)


def load_complex_shapes(text: str) -> FreeComplex:
    """Parse a complex document checking shapes only; the caller decides how
    to report a failing d.d = 0 identity (the validate subcommand treats it
    as checked-and-failed, not as malformed input)."""
    raw_lines = text.splitlines()
    lines = []
    for lineno, raw in enumerate(raw_lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise InputError("empty complex document")
    pos = 0

    def take(prefix: str):
        nonlocal pos
        if pos >= len(lines):
            raise InputError(f"unexpected end of document, expected {prefix!r}")
        lineno, line = lines[pos]
        if not line.startswith(prefix):
            raise InputError(f"line {lineno}: expected {prefix!r}, got {line!r}")
        pos += 1
        return lineno, line

    _, ring_line = take("ring")
    ctx = _parse_ring_line(ring_line)
    _, deg_line = take("degrees")
    try:
        lo_text, hi_text = deg_line.split()[1].split("..")
        k_min, k_max = int(lo_text), int(hi_text)
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed degrees line: {deg_line!r}") from exc
    check_degree(k_min)
    check_degree(k_max)
    _, ranks_line = take("ranks")
    try:
        ranks = [int(r) for r in ranks_line.split(None, 1)[1].split(",")]
    except (IndexError, ValueError) as exc:
        raise InputError(f"malformed ranks line: {ranks_line!r}") from exc
    if len(ranks) != k_max - k_min + 1:
        raise InputError(
            f"rank count {len(ranks)} does not match degree range "
            f"{k_min}..{k_max}"
        )
    diffs = {}
    for i in range(k_min, k_max):
        lineno, header = take("differential")
        try:
            deg = int(header.split()[1])
        except (IndexError, ValueError) as exc:
            raise InputError(f"line {lineno}: malformed differential header") from exc
        if deg != i:
            raise InputError(
                f"line {lineno}: expected differential {i}, found {deg}"
            )
        nrows = ranks[i + 1 - k_min]
        ncols = ranks[i - k_min]
        rows = []
        for _ in range(nrows):
            if pos >= len(lines):
                raise InputError(f"differential {i}: missing matrix rows")
            lineno, line = lines[pos]
            pos += 1
            entries = [ctx.parse(chunk) for chunk in line.split(",")]
            if len(entries) != ncols:
                raise InputError(
                    f"line {lineno}: expected {ncols} entries, got {len(entries)}"
                )
            rows.append(entries)
        diffs[i] = Matrix(ctx, nrows, ncols, rows)
    if pos != len(lines):
        lineno, line = lines[pos]
        raise InputError(f"line {lineno}: trailing content {line!r}")
    return FreeComplex(ctx, k_min, k_max, ranks, diffs)


def load_complex(text: str) -> FreeComplex:
    """Strict load: shapes plus the complex identity."""
    cx = load_complex_shapes(text)
    cx.ensure_valid()
    return cx


# -- loci JSON format -----------------------------------------------------------


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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key (json.loads keeps the last)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def load_loci(text: str, strict: bool = True):
    """Parse a loci document.  Returns (profile, rejected) where rejected is
    a list of {degree, reason} records for components that violate an
    invariant; with strict=True the first violation raises instead.  Either
    way a key repeated in any object is refused."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, an integer over the digit limit or a repeated key
        raise InputError(f"malformed loci JSON: {exc}") from exc
    if not isinstance(doc, dict) or "ring" not in doc or "loci" not in doc:
        raise InputError("loci document needs 'ring' and 'loci' blocks")
    ring = doc["ring"]
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


# -- report documents -------------------------------------------------------------


def ideal_entry(degree: int, ideal: LaurentIdeal) -> dict:
    basis = ideal.groebner_basis()
    return {
        "degree": degree,
        "generators": sorted(str(g) for g in ideal.generators),
        "saturated_basis": sorted(str(g) for g in basis),
        "codimension": str(ideal.codimension()),
        "empty": bool(ideal.is_unit_ideal()),
        "whole_space": loci.is_whole_space(ideal),
        "provenance": "exact",
    }


def jump_ideal_report(cx: FreeComplex, degrees: Sequence[int]) -> dict:
    return {
        "report": "jump-ideals",
        "degrees": [ideal_entry(d, cx.jumping_ideal(d)) for d in degrees],
    }


def exactness_report(cx: FreeComplex) -> dict:
    (ok, cert), (dual_ok, dual_cert) = cx.negative_exactness()
    for row in cert + dual_cert:
        row["fitting_codim"] = str(row["fitting_codim"])
    return {
        "report": "exactness",
        "assumption_holds": ok and dual_ok,
        "negative_degrees_exact": ok,
        "certificate": cert,
        "dual_negative_degrees_exact": dual_ok,
        "dual_certificate": dual_cert,
    }


def perversity_report_doc(report: PerversityReport, samples: int, seed: int) -> dict:
    def rows(rs):
        return [dict(r._asdict(), actual=str(r.actual)) for r in rs]

    return {
        "report": "perversity",
        "verdict": report.verdict,
        "upper": rows(report.upper_rows),
        "lower": rows(report.lower_rows),
        "violations": rows(report.violations),
        "propagation": {
            "ok": report.propagation_ok,
            "first_violation": list(report.propagation_first_violation)
            if report.propagation_first_violation
            else None,
        },
        "support_interval": {
            "ok": report.support_ok,
            "offenders": report.support_offenders,
        },
        "euler": {"status": report.euler_status, "detail": report.euler_detail},
        "provenance": dict(sorted(report.provenance.items())),
        "samples": samples,
        "seed": seed,
    }


def codims_report(profile: LociProfile) -> dict:
    entries = []
    for deg in profile.degrees():
        union = profile.locus(deg)
        stats = {key: str(value) for key, value in union.codim_stats()._asdict().items()}
        components = [
            dict(_component_doc(c), **dict(zip(("codim", "codim_a", "codim_sa"), c.codims())))
            for c in union.components
        ]
        entries.append({"degree": deg, "components": components, **stats})
    return {"report": "codims", "degrees": entries}


def sample_report(cx: FreeComplex, points: Sequence[TorsionPoint], degrees: Sequence[int]) -> dict:
    entries = []
    for p in points:
        row = {"point": _point_doc(p), "memberships": {}}
        for d in degrees:
            member, dim = loci.membership_at_point(cx, d, p)
            row["memberships"][str(d)] = {"member": member, "dim": dim}
        entries.append(row)
    return {"report": "sample", "points": entries}


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(doc: dict) -> str:
    """Stable plain-text rendering: sorted keys, one line per leaf."""
    lines: list[str] = []

    def walk(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, list):
            if not value:
                lines.append(f"{prefix}: []")
            for idx, item in enumerate(value):
                walk(f"{prefix}[{idx}]", item)
        else:
            lines.append(f"{prefix}: {value}")

    walk("", doc)
    return "\n".join(lines) + "\n"


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
