"""Deterministic sampling of torsion points for spot checks.

All sampling is driven by an explicit random.Random instance seeded by the
caller, so reports built from sampled verdicts are reproducible
byte-for-byte given the seed.  Samples mix plain rational points (cheap
exact arithmetic), low-order torsion points (angles with denominator
dividing 12), and points lying on declared loci, since random points almost
never hit a proper closed subset.

Every CLI job loads this module, since ``verdict`` binds ``sample_points``
at its top, so TorsionPoint is imported from ``profiles`` only where a
point is built.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InputError, check_cap

_ANGLES = [
    Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 4), Fraction(3, 4), Fraction(1, 6), Fraction(5, 6),
    Fraction(1, 12), Fraction(5, 12), Fraction(7, 12), Fraction(11, 12),
]
_TORSION_SHARE = 0.25  # share of random sample points that are torsion points
# Largest --samples: once a small ring's random pool is exhausted, up to 60
# draws per point (perversity on m = 1: 0.7 s at 1000 samples, 17 s at
# 10000; one run each on a shared 2-core VM, Python 3.11).
MAX_SAMPLES = 1000


def check_sample_count(count: int) -> None:
    """Refuse a negative count with InputError and one above MAX_SAMPLES
    with ResourceError."""
    if count < 0:
        raise InputError(f"the sample count must be nonnegative, got {count}")
    check_cap(count, MAX_SAMPLES, "sample count")


def _random_radial(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-12, 13) if n])
    den = rng.randint(1, 12)
    return Fraction(num, den)


def random_rational_point(context: RingContext, rng: random.Random) -> TorsionPoint:
    return context.rational_point([_random_radial(rng) for _ in range(context.num_vars)])


def random_torsion_point(context: RingContext, rng: random.Random) -> TorsionPoint:
    # imported here: every job imports this module, few of them sample
    from .profiles import TorsionPoint

    coords = [
        (_random_radial(rng), rng.choice(_ANGLES)) for _ in range(context.num_vars)
    ]
    return TorsionPoint(context, coords)


def component_points(component: LinearComponent, rng: random.Random) -> list[TorsionPoint]:
    """Points guaranteed to lie on the component: the translate itself plus
    two random rational points of the subtorus through it."""
    # imported here: only a sample drawn on declared loci needs the lattices
    from .lattices import subtorus_point

    free_rank = component.context.num_vars - component.rank
    return [component.translate] + [
        subtorus_point(component, [abs(_random_radial(rng)) for _ in range(free_rank)])
        for _ in range(2)
    ]


def sample_points(
    context: RingContext,
    rng: random.Random,
    count: int,
    loci: list[LinearUnion] | None = None,
) -> list[TorsionPoint]:
    """A deterministic sample of at least ``count`` distinct points: points
    on every declared component first, then random rational and low-order
    torsion points, with a deterministic integer tail in the unlikely event
    the random pool repeats too often.  A ring without variables has one
    point, the identity, so its sample is that point whatever ``count``."""
    seen: set[TorsionPoint] = set()
    unique: list[TorsionPoint] = []

    def push(p: TorsionPoint):
        if p not in seen:
            seen.add(p)
            unique.append(p)

    push(context.identity_point())
    if loci:
        for union in loci:
            for comp in union.components:
                for p in component_points(comp, rng):
                    push(p)
    attempts = 0
    while len(unique) < count and attempts < 60 * count:
        attempts += 1
        if rng.random() < _TORSION_SHARE:
            push(random_torsion_point(context, rng))
        else:
            push(random_rational_point(context, rng))
    filler = 2
    while len(unique) < count and context.num_vars:
        push(context.rational_point([filler + i for i in range(context.num_vars)]))
        filler += 1
    return unique
