"""Independent oracles the tests check the program against.

No subcommand, library job or public name reaches these; each re-derives a
result by a code path of its own, so the redundancy that lets the system
check itself lives beside the tests that use it:

  * ``torus_specialization_verdict`` (g = 0, the Gabber-Loeser case) and
    ``abelian_specialization_verdict`` (m = 0, Schnell's case): the verdict
    engine against the torus and abelian specializations, re-derived from
    plain lattice ranks with no shared codimension helpers;
  * ``rational_rank``: the lattice calculus (Hermite and Smith forms,
    kernels, saturation) against a fraction-based rank over Q;
  * ``dual_complex``: the dual certificate that ``FreeComplex.exactness``
    reads off the complex against the transposed complex, built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from jumploci.complexes import FreeComplex
from jumploci.errors import InputError
from jumploci.loci import LociProfile


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


def rational_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q via fraction-based Gaussian elimination: no lattice code
    calls it, it is the independent oracle the tests check them against."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, nrows):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def dual_complex(cx: FreeComplex) -> FreeComplex:
    """Hom(F, ring) with Hom(F^i, ring) placed in degree -i; differentials
    are the transposes of the originals."""
    cx.ensure_valid()
    diffs = {j: cx.differential(-j - 1).transpose() for j in range(-cx.k_max, -cx.k_min)}
    return FreeComplex(cx.context, -cx.k_max, -cx.k_min, tuple(reversed(cx.ranks)), diffs)
