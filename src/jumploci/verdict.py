"""The perversity verdict engine over declared linear loci.

A LociProfile assigns to each degree a finite union of translated subtori
(absent degrees mean the empty locus).  The verdict tests the two half
conditions

    (a) abelian codimension of V^i >= i for every i >= 0, and
    (b) semi-abelian codimension of V^i >= -i for every i <= 0,

and reports perverse / upper-only / lower-only / neither accordingly, along
with the auxiliary consequences that hold for genuinely perverse objects:
the propagation chain of the loci, the support interval
[-m-g, g], the survival interval of each degree-zero component, and the
signed Euler characteristic clause (chi >= 0, with chi = 0 exactly when the
degree-zero locus is a proper subset).

``perversity_verdict`` returns the report as the plain document that the
``perversity`` subcommand prints, and nothing else defines its schema.  A
condition row is ``{degree, condition, required, actual, ok}``, with the
codimension ``actual`` as text (``inf`` for an empty locus).

The verdict consumes declared loci rather than attempting to decompose
computed ideals: linearity of jump loci is a structural fact about the
geometric situation the inputs are drawn from, not something the checker
can certify for an arbitrary complex.  When a profile is accompanied by its
source complex, declared and computed memberships are spot-checked on a
seeded sample of torsion points and any mismatch rejects the profile with a
witness point.

Torus (g = 0) and abelian (m = 0) specializations are re-derived through
independent code paths (plain lattice ranks, no shared codimension
helpers) so the general verdict can be cross-validated against them.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, NamedTuple

from .errors import InputError
from .loci import chain_links, membership_at_point
from .sampling import check_sample_count, sample_points


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
            if euler is None:
                euler = source.euler_characteristic()
        self.context = context
        self.loci = clean
        self.source = source
        self.euler = euler

    def locus(self, degree: int) -> LinearUnion:
        # imported here: importing the command line must not load the lattices
        from .lattices import LinearUnion

        return self.loci.get(degree, LinearUnion.empty(self.context))

    def degrees(self) -> list[int]:
        return sorted(self.loci)

    def shift(self, s: int) -> "LociProfile":
        """Profile of the complex moved s steps right: degree i holds what
        degree i - s held."""
        return LociProfile(
            self.context,
            {deg + s: union for deg, union in self.loci.items()},
            source=None,
            euler=self.euler if s % 2 == 0 else (-self.euler if self.euler is not None else None),
        )

    def with_source(self, source: FreeComplex) -> "LociProfile":
        return LociProfile(self.context, self.loci, source=source, euler=self.euler)

    def union_with(self, other: "LociProfile") -> "LociProfile":
        self.context.require(other)
        degs = set(self.loci) | set(other.loci)
        merged = {d: self.locus(d).union_with(other.locus(d)) for d in degs}
        euler = (
            self.euler + other.euler
            if self.euler is not None and other.euler is not None
            else None
        )
        return LociProfile(self.context, merged, euler=euler)


def _condition_rows(profile: LociProfile, degrees: range, condition: str, field: str) -> list[dict]:
    """One row per degree i: the codimension statistic ``field`` of V^i
    against the bound |i|.  ``ok`` compares the number; ``actual`` is its
    text (``inf`` for an empty locus)."""
    rows = []
    for i in degrees:
        actual = getattr(profile.locus(i).codim_stats(), field)
        rows.append(
            {"degree": i, "condition": condition, "required": abs(i), "actual": str(actual),
             "ok": actual >= abs(i)}
        )
    return rows


def check_upper(profile: LociProfile) -> list[dict]:
    """Condition (a): abelian codimension at least i in each degree i >= 0."""
    top = max([d for d in profile.degrees() if d >= 0], default=-1)
    return _condition_rows(profile, range(0, top + 1), "abelian-codim", "codim_a")


def check_lower(profile: LociProfile) -> list[dict]:
    """Condition (b): semi-abelian codimension at least -i in each i <= 0."""
    bottom = min([d for d in profile.degrees() if d <= 0], default=1)
    return _condition_rows(profile, range(bottom, 1), "semiabelian-codim", "codim_sa")


def profile_propagation(profile: LociProfile) -> dict:
    """Nesting chain on declared loci via exhaustive component containment,
    link by link (loci.chain_links), and its first failing link."""
    degs = profile.degrees() or [0]
    for i, inner, outer in chain_links(degs[0], degs[-1]):
        if not profile.locus(outer).contains(profile.locus(inner)):
            return {"ok": False, "first_violation": [i, i + 1]}
    return {"ok": True, "first_violation": None}


def support_interval_check(profile: LociProfile) -> dict:
    """Loci must vanish outside [-m-g, g]."""
    m, g = profile.context.torus_rank, profile.context.abelian_rank
    offenders = [d for d in profile.degrees() if not (-m - g <= d <= g)]
    return {"ok": not offenders, "offenders": offenders}


def spot_check_profile(
    profile: LociProfile,
    samples: int = 40,
    seed: int = 0,
) -> dict[str, str]:
    """Compare declared membership with computed membership at sampled
    points; raises InputError with a witness on the first disagreement.
    Only degrees where the complex has a module or a locus is declared are
    visited: elsewhere both memberships are false at every point."""
    source = profile.source
    if source is None:
        raise InputError("spot check requires a source complex")
    rng = random.Random(seed)
    pts = sample_points(
        profile.context, rng, samples, loci=list(profile.loci.values())
    )
    for degree in sorted(set(source.degrees()).union(profile.loci)):
        declared_union = profile.locus(degree)
        for p in pts:
            declared = declared_union.contains_point(p)
            computed, dim = membership_at_point(source, degree, p)
            if declared != computed:
                raise InputError(
                    f"declared locus disagrees with the complex at degree "
                    f"{degree}, witness point {p!r}: declared={declared}, "
                    f"computed={computed} (dim H = {dim})"
                )
    return {"spot_check": f"sampled (seed={seed}, points={len(pts)})"}


def perversity_verdict(
    profile: LociProfile,
    samples: int = 40,
    seed: int = 0,
) -> dict:
    """Aggregate the two half conditions plus the auxiliary consequences
    into the report document ``perversity`` prints; ``samples`` is refused
    by ``check_sample_count`` before anything is computed."""
    check_sample_count(samples)
    provenance = {"conditions": "exact", "propagation": "exact", "support": "exact"}
    if profile.source is not None:
        provenance.update(spot_check_profile(profile, samples=samples, seed=seed))

    upper = check_upper(profile)
    lower = check_lower(profile)
    upper_ok = all(r["ok"] for r in upper)
    lower_ok = all(r["ok"] for r in lower)
    if upper_ok and lower_ok:
        verdict = "perverse"
    elif upper_ok:
        verdict = "upper-only"
    elif lower_ok:
        verdict = "lower-only"
    else:
        verdict = "neither"

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
        "verdict": verdict,
        "upper": upper,
        "lower": lower,
        "violations": [r for r in upper + lower if not r["ok"]],
        "propagation": profile_propagation(profile),
        "support_interval": support_interval_check(profile),
        "euler": euler,
        "provenance": dict(sorted(provenance.items())),
        "samples": samples,
        "seed": seed,
    }


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


# -- independent specializations (cross-validation code paths) ----------------


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
