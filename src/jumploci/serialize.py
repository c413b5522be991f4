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
strict: each line starts with its whole keyword, the ring line holds vars,
torus and abelian once each and nothing else, nothing follows a degree range
or a differential index, and shapes, unknown variables and the complex
identity d.d = 0 are all checked, reported with line numbers where possible.

Reports are plain dicts rendered to deterministic text or JSON: keys are
sorted, generators are listed in sorted canonical string form, and sampled
verdicts always carry their seed.  ``perversity_verdict`` builds the
``perversity`` document here, next to ``jump_ideal_report``, and
``verdict`` re-exports it; the ``exactness`` document is the one
``FreeComplex.exactness`` returns.

The loci format (its name, caps, reader and writer), the points reader and
the ``codims`` and ``sample`` documents live in ``loci``, which only loci
and point jobs load; ``_LOCI_NAMES`` are resolved here on first read, by
the package's ``lazy_names``.
Every subcommand imports this module, so it loads at its top only the ring
and the errors: the complex loader imports ``complexes``, and
``perversity_verdict`` the verdict engine and ``sampling``, when they run.
"""

from __future__ import annotations

import json
from typing import Sequence

from . import lazy_names
from .errors import InputError, ResourceError
from .laurent import RingContext, format_poly, parse_int

# Largest |degree| read from a file or the command line: the verdict's
# conditions, jump-ideals and sample hold a row per degree up to the
# farthest one, so their cost grows with the degree.
MAX_DEGREE = 1000


_LOCI_NAMES = ("codims_report", "dump_loci", "load_loci", "parse_points_file", "sample_report")
__getattr__ = lazy_names(globals(), dict.fromkeys(_LOCI_NAMES, "loci"))


def check_degree(degree: int) -> int:
    """``degree``, refused with ResourceError beyond MAX_DEGREE."""
    if abs(degree) > MAX_DEGREE:
        raise ResourceError(f"degree {degree} exceeds the cap of {MAX_DEGREE} in absolute value")
    return degree


def degree_range(text: str) -> tuple[int, int]:
    """The ends of ``a..b`` by parse_int and check_degree; ValueError if malformed."""
    lo, hi = (parse_int(bound) for bound in text.split(".."))
    return check_degree(lo), check_degree(hi)


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
        if key not in ("vars", "torus", "abelian") or key in fields:
            raise InputError(f"{'repeated' if key in fields else 'unknown'} ring field {key!r}")
        fields[key] = value
    try:
        names = fields["vars"].split(",") if fields["vars"] else []
        torus = parse_int(fields["torus"])
        abelian = parse_int(fields["abelian"])
    except (KeyError, ValueError) as exc:
        raise InputError(f"malformed ring line: {line!r}") from exc
    return RingContext(names, torus, abelian)


def load_complex_shapes(text: str) -> FreeComplex:
    """Parse a complex document checking shapes only; the caller decides how
    to report a failing d.d = 0 identity (the validate subcommand treats it
    as checked-and-failed, not as malformed input)."""
    # imported here: a job that reads only loci never loads complexes
    from .complexes import FreeComplex, Matrix

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

    def take(keyword: str):
        nonlocal pos
        if pos >= len(lines):
            raise InputError(f"unexpected end of document, expected {keyword!r}")
        lineno, line = lines[pos]
        if line.split()[0] != keyword:
            raise InputError(f"line {lineno}: expected {keyword!r}, got {line!r}")
        pos += 1
        return lineno, line

    _, ring_line = take("ring")
    ctx = _parse_ring_line(ring_line)
    _, deg_line = take("degrees")
    try:
        _, span = deg_line.split()
        k_min, k_max = degree_range(span)
    except ValueError as exc:
        raise InputError(f"malformed degrees line: {deg_line!r}") from exc
    _, ranks_line = take("ranks")
    try:
        ranks = [parse_int(r) for r in ranks_line.split(None, 1)[1].split(",")]
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
            _, deg_text = header.split()
            deg = parse_int(deg_text)
        except ValueError as exc:
            raise InputError(f"line {lineno}: malformed differential header {header!r}") from exc
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


# -- report documents -------------------------------------------------------------


def is_whole_space(ideal: LaurentIdeal) -> bool:
    """The locus is the whole torus iff every generator is the zero
    polynomial: a nonzero Laurent polynomial cannot vanish identically."""
    return all(g.is_zero() for g in ideal.generators)


def ideal_entry(degree: int, ideal: LaurentIdeal) -> dict:
    basis = ideal.groebner_basis()
    return {
        "degree": degree,
        "generators": sorted(str(g) for g in ideal.generators),
        "saturated_basis": sorted(str(g) for g in basis),
        "codimension": str(ideal.codimension()),
        "empty": bool(ideal.is_unit_ideal()),
        "whole_space": is_whole_space(ideal),
        "provenance": "exact",
    }


def jump_ideal_report(cx: FreeComplex, degrees: Sequence[int]) -> dict:
    return {
        "report": "jump-ideals",
        "degrees": [ideal_entry(d, cx.jumping_ideal(d)) for d in degrees],
    }


def perversity_verdict(
    profile: LociProfile,
    samples: int = 40,
    seed: int = 0,
) -> dict:
    """Aggregate the two half conditions plus the auxiliary consequences
    into the report document ``perversity`` prints; ``samples`` is refused
    by ``check_sample_count`` before anything is computed."""
    # imported here: a job that asks for no verdict never loads the engine
    from . import verdict
    from .sampling import check_sample_count

    check_sample_count(samples)
    provenance = {"conditions": "exact", "propagation": "exact", "support": "exact"}
    if profile.source is not None:
        provenance.update(verdict.spot_check_profile(profile, samples=samples, seed=seed))

    upper = verdict.check_upper(profile)
    lower = verdict.check_lower(profile)
    upper_ok = all(r["ok"] for r in upper)
    lower_ok = all(r["ok"] for r in lower)
    if upper_ok and lower_ok:
        outcome = "perverse"
    elif upper_ok:
        outcome = "upper-only"
    elif lower_ok:
        outcome = "lower-only"
    else:
        outcome = "neither"

    if profile.euler is None:
        euler = {"status": "skipped (euler unknown)", "detail": "no Euler characteristic on the profile"}
    else:
        chi = profile.euler
        whole = profile.locus(0).is_whole_space()
        holds = chi >= 0 and (chi == 0) == (not whole)
        euler = {
            "status": "pass" if holds else "fail",
            "detail": f"chi={chi}, degree-0 locus {'is' if whole else 'is not'} the whole space",
        }

    return {
        "report": "perversity",
        "verdict": outcome,
        "upper": upper,
        "lower": lower,
        "violations": [r for r in upper + lower if not r["ok"]],
        "propagation": verdict.profile_propagation(profile),
        "support_interval": verdict.support_interval_check(profile),
        "euler": euler,
        "provenance": dict(sorted(provenance.items())),
        "samples": samples,
        "seed": seed,
    }


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
