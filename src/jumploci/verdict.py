"""The perversity verdict engine over declared linear loci.

A LociProfile (``loci``) assigns to each degree a finite union of
translated subtori (absent degrees mean the empty locus).  The verdict
tests the two half conditions

    (a) abelian codimension of V^i >= i for every i >= 0, and
    (b) semi-abelian codimension of V^i >= -i for every i <= 0,

and reports perverse / upper-only / lower-only / neither accordingly, along
with the auxiliary consequences that hold for genuinely perverse objects:
the propagation chain of the loci, the support interval
[-m-g, g], and the signed Euler characteristic clause (chi >= 0, with chi = 0 exactly when the
degree-zero locus is a proper subset).

``perversity_verdict`` returns the report as the plain document that the
``perversity`` subcommand prints.  It is defined in ``serialize``, beside the
other report documents, and re-exported here, so that the command line binds
it without loading this engine; it calls the checks below through this
module.  A condition row is ``{degree, condition, required, actual, ok}``,
with the codimension ``actual`` as text (``inf`` for an empty locus).

The verdict consumes declared loci rather than attempting to decompose
computed ideals: linearity of jump loci is a structural fact about the
geometric situation the inputs are drawn from, not something the checker
can certify for an arbitrary complex.  When a profile is accompanied by its
source complex, declared and computed memberships are compared at
max(samples, 1) seeded torsion points, points on the declared components
first, and any mismatch rejects the profile with a witness point.

The survival interval lives in ``loci``.  The torus (g = 0) and abelian
(m = 0) specializations, independent code paths to cross-validate this
engine against, live with the tests in ``tests/oracles.py``.
"""

from __future__ import annotations

import random

from .errors import InputError
from .loci import chain_links, membership_at_point
from .sampling import sample_points
# the report document, whose name this module keeps public
from .serialize import perversity_verdict


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


def spot_check_profile(profile: LociProfile, samples: int, seed: int) -> dict[str, str]:
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
