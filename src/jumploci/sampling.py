"""Deterministic sampling of torsion points for spot checks.

All sampling is driven by an explicit random.Random instance seeded by the
caller, so reports built from sampled verdicts are reproducible
byte-for-byte given the seed.  A sample is one stream cut at the requested
count: points lying on declared loci first, since random points almost
never hit a proper closed subset, then plain rational points (cheap exact
arithmetic) and low-order torsion points (angles with denominator dividing
12).

Only a job that runs a verdict loads this module (``verdict`` binds
``sample_points`` at its top), after ``loci`` and ``lattices``, whose
TorsionPoint and subtorus_point it imports at its top.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import InputError, check_cap
from .lattices import subtorus_point
from .loci import TorsionPoint

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
    coords = [
        (_random_radial(rng), rng.choice(_ANGLES)) for _ in range(context.num_vars)
    ]
    return TorsionPoint(context, coords)


def component_points(component: LinearComponent, rng: random.Random) -> list[TorsionPoint]:
    """Points guaranteed to lie on the component: the translate itself plus
    two random rational points of the subtorus through it."""
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
    """The first max(``count``, 1) distinct points of one seeded stream: the
    identity, the points of each declared component, up to 60 * ``count``
    random points, and on a ring with variables an integer tail in case the
    random pool repeats too often.  A ring without variables has one point."""

    def stream():
        yield context.identity_point()
        for union in loci or ():
            for comp in union.components:
                yield from component_points(comp, rng)
        for _ in range(60 * count):
            if rng.random() < _TORSION_SHARE:
                yield random_torsion_point(context, rng)
            else:
                yield random_rational_point(context, rng)
        if context.num_vars:
            for filler in itertools.count(2):
                yield context.rational_point([filler + i for i in range(context.num_vars)])

    unique: dict[TorsionPoint, None] = {}
    for p in stream():
        unique[p] = None
        if len(unique) == max(count, 1):
            break
    return list(unique)
