"""Seeded input generator: fixture files and job lists for each workload.

Inputs are built only through the public ``jumploci.fixtures`` and
``jumploci.serialize`` API.  The seed drives the twist scalars, the sample
points and the spot-check ``--seed``; the program under test only ever sees
the files written here.  Every job carries its expected outcome, derived
from the fixture's declared loci and verdict rather than from the route the
job exercises (see ``checker.py``).

A job is a plain dict:

    id       unique within the workload
    kind     "cli" (``python -m jumploci <argv>``) or "lib" (``libjob.py <argv>``)
    argv     arguments, file names relative to the work directory
    expect   expected outcome, interpreted by ``checker.check``
    deadline seconds at reference speed before the job is stopped and
             recorded as a timeout
    repeat   whether the job runs a second time after the timed pass, so its
             stdout can be compared across repeats
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from jumploci import serialize
from jumploci.fixtures import (
    free_module_fixture,
    induce_fixture,
    mellin_constant_torus,
    renamed_torus_fixture,
    shift_fixture,
    sum_fixture,
    tensor_fixture,
    twist_fixture,
)
from jumploci.laurent import TorsionPoint

# Per-job deadline, in seconds at reference speed (see REFERENCE_S in
# run.py); the harness stretches it by the machine speed it measures just
# before the job.  The slowest jobs that finish on the parent code are m4
# jump-ideals at degrees -3 and -1, 12-15 s at reference speed; 22 s leaves
# room for that, so the timeout count repeats exactly, and keeps a frontier
# run near a minute.
DEADLINE_S = 22.0

# Twist scalars, all of height 2, so every twist moves the loci and the
# Groebner work (coefficient sizes) stays comparable from seed to seed.
TWIST_POOL = [Fraction(v) for v in ("2", "-2", "1/2", "-1/2")]

# Cyclotomic order of the frontier's sample points.
FRONTIER_ORDER = 97


class _Writer:
    """Writes fixture files once per fixture and builds jobs against them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.jobs: list[dict] = []
        self._files: dict[str, tuple[str, str]] = {}

    def files(self, key: str, fx) -> tuple[str, str]:
        if key not in self._files:
            cx_name, loci_name = f"{key}.complex", f"{key}.loci"
            (self.workdir / cx_name).write_text(serialize.dump_complex(fx.complex))
            (self.workdir / loci_name).write_text(serialize.dump_loci(fx.profile))
            self._files[key] = (cx_name, loci_name)
        return self._files[key]

    def add(self, job_id: str, kind: str, argv: list[str], expect: dict, repeat: bool | None = None) -> None:
        """Add a job; by default every tenth job is repeated."""
        if repeat is None:
            repeat = len(self.jobs) % 10 == 0
        self.jobs.append(
            {"id": job_id, "kind": kind, "argv": argv, "expect": expect, "deadline": DEADLINE_S, "repeat": repeat}
        )


# -- expectations from declared loci -------------------------------------------


def _lattice_rows(union) -> list[list[list[int]]]:
    return [[list(r) for r in c.lattice] for c in union.components]


def _declared_degrees(fx) -> dict[str, list]:
    """Per complex degree: the declared components' lattices, for the
    checker's codimension/emptiness expectations."""
    cx, profile = fx.complex, fx.profile
    return {str(d): _lattice_rows(profile.locus(d)) for d in range(cx.k_min, cx.k_max + 1)}


def _point_doc(p: TorsionPoint) -> list[list[str]]:
    return [[str(q), str(th)] for q, th in p.coords]


# -- the fixture stock ------------------------------------------------------------


def seeded_stock(rng: random.Random) -> list[tuple[str, object]]:
    """The standard fixture stock with seeded twist scalars: Koszul m = 1..3,
    twists, 1x1 and 1x2 tensors, induced covers, sums and free modules.
    Returns (slot key, fixture) pairs; the key is stable across seeds."""

    def lam(k: int) -> list[Fraction]:
        return [rng.choice(TWIST_POOL) for _ in range(k)]

    m1, m2, m3 = (mellin_constant_torus(m) for m in (1, 2, 3))
    second1 = renamed_torus_fixture(1, 1)
    second2 = renamed_torus_fixture(2, 1)
    stock = [("m1", m1), ("m2", m2), ("m3", m3)]
    for k in range(3):
        a = lam(1)
        stock.append((f"tw1-{k}", twist_fixture(m1, a)))
        stock.append((f"tw2-{k}", twist_fixture(m2, a * 2)))
    stock.append(("tw2-mixed", twist_fixture(m2, lam(2))))
    stock.append(("tw3", twist_fixture(m3, lam(3))))
    stock.append(("tensor-1x1", tensor_fixture(m1, second1)))
    stock.append(("tensor-1x2", tensor_fixture(m1, second2)))
    stock.append(("tensor-tw-1x1", tensor_fixture(twist_fixture(m1, lam(1)), second1)))
    stock.append(("tensor-1x1-tw", tensor_fixture(m1, twist_fixture(second1, lam(1)))))
    stock.append(("induce-1-2", induce_fixture(m1, [2])))
    stock.append(("induce-1-3", induce_fixture(m1, [3])))
    stock.append(("induce-2-21", induce_fixture(m2, [2, 1])))
    stock.append(("induce-tw2-21", induce_fixture(twist_fixture(m2, lam(2)), [2, 1])))
    stock.append(("induce-tw1-2", induce_fixture(twist_fixture(m1, lam(1)), [2])))
    stock.append(("sum-1-tw", sum_fixture(m1, twist_fixture(m1, lam(1)))))
    stock.append(("sum-2-tw", sum_fixture(m2, twist_fixture(m2, lam(2)))))
    stock.append(("sum-1-induce", sum_fixture(m1, induce_fixture(m1, [2]))))
    stock.append(("sum-2-2", sum_fixture(m2, m2)))
    stock.append(("sum-1-free", sum_fixture(m1, free_module_fixture(1))))
    stock.append(("free-1", free_module_fixture(1)))
    stock.append(("free-2r3", free_module_fixture(2, rank=3)))
    return stock


def _verdict_expect(fx, kind: str) -> dict:
    return {"type": kind, "exit": 0 if fx.expected_verdict == "perverse" else 1, "verdict": fx.expected_verdict}


def _jump_ideals_expect(fx) -> dict:
    return {"type": "jump-ideals", "exit": 0, "degrees": _declared_degrees(fx)}


# -- workloads ----------------------------------------------------------------------


def _family(key: str) -> str:
    for prefix, family in (("tensor", "tensor"), ("induce", "induce"), ("sum", "sum-free"), ("free", "sum-free")):
        if key.startswith(prefix):
            return family
    return "koszul-twist"


def _ideal_route(w: _Writer, rng: random.Random) -> None:
    batches: dict[str, dict] = {}
    for key, fx in seeded_stock(rng):
        cx_file, _ = w.files(key, fx)
        w.add(f"jump-ideals:{key}", "cli", ["jump-ideals", cx_file, "--json"], _jump_ideals_expect(fx))
        w.add(f"exactness:{key}", "cli", ["exactness", cx_file, "--json"],
              {"type": "exactness", "exit": 0, "assumption_holds": True})
        batches.setdefault(_family(key), {})[cx_file] = _declared_degrees(fx)
    # One library job per fixture family, certifying the family's complexes
    # in one process as a batch certifier would.
    for family, complexes in batches.items():
        w.add(f"certify:{family}", "lib", list(complexes), {"type": "certify", "exit": 0, "complexes": complexes})
    m2, m3 = mellin_constant_torus(2), mellin_constant_torus(3)
    # Shifting left moves the degree-0 cohomology into degree -1, so the
    # exactness assumption fails and the command exits 1.
    left = shift_fixture(m2, -1)
    cx_file, _ = w.files("m2-shift-left", left)
    w.add("exactness:m2-shift-left", "cli", ["exactness", cx_file, "--json"],
          {"type": "exactness", "exit": 1, "assumption_holds": False})
    w.add("jump-ideals:m2-shift-left", "cli", ["jump-ideals", cx_file, "--json"],
          _jump_ideals_expect(left))
    # The sum of m3 with its twist needs 6 x 6 minors, above the cap of 5.
    capped = sum_fixture(m3, twist_fixture(m3, [rng.choice(TWIST_POOL) for _ in range(3)]))
    cx_file, _ = w.files("sum-3-tw", capped)
    w.add("jump-ideals:sum-3-tw", "cli", ["jump-ideals", cx_file, "--json"],
          {"type": "exit-only", "exit": 3, "stderr": "minor size 6 exceeds the cap of 5"})


def _torsion_points(ctx, rng: random.Random, orders: list[int]) -> list[TorsionPoint]:
    """One point per order L, every coordinate a seeded primitive L-th root
    of unity.  Radial parts stay 1: a nonunit radial part makes the cost of
    one point swing twentyfold with the seed."""
    pts = []
    for L in orders:
        units = [k for k in range(1, L) if math.gcd(k, L) == 1]
        pts.append(TorsionPoint(ctx, [(Fraction(1), Fraction(rng.choice(units), L)) for _ in range(ctx.num_vars)]))
    return pts


def _sample_job(w: _Writer, job_id: str, key: str, fx, points, repeat: bool | None = None) -> None:
    cx_file, _ = w.files(key, fx)
    pts_file = f"{job_id.replace(':', '-')}.points"
    (w.workdir / pts_file).write_text(json.dumps([_point_doc(p) for p in points]) + "\n")
    cx = fx.complex
    members = {
        str(d): [fx.profile.locus(d).contains_point(p) for p in points]
        for d in range(cx.k_min, cx.k_max + 1)
    }
    w.add(job_id, "cli", ["sample", cx_file, "--points", pts_file, "--json"],
          {"type": "sample", "exit": 0, "members": members}, repeat=repeat)


def _pointwise_route(w: _Writer, rng: random.Random) -> None:
    m1, m2, m3, m4 = (mellin_constant_torus(m) for m in (1, 2, 3, 4))
    extra = [
        ("m4", m4),
        ("tensor-2x2", tensor_fixture(m2, renamed_torus_fixture(2, 2))),
        ("induce-1-5", induce_fixture(m1, [5])),
        ("induce-2-32", induce_fixture(m2, [3, 2])),
        ("induce-3-211", induce_fixture(m3, [2, 1, 1])),
    ]
    stock = seeded_stock(rng) + extra
    # Shifted fixtures are one-sided, so perversity exits 1 on them.
    shifted = [("m2-shift-right", shift_fixture(m2, 1)), ("m3-shift-left", shift_fixture(m3, -1))]
    for key, fx in stock + shifted:
        cx_file, loci_file = w.files(key, fx)
        spot_seed = str(rng.randrange(10**6))
        w.add(f"perversity:{key}", "cli",
              ["perversity", cx_file, "--loci", loci_file, "--samples", "20", "--seed", spot_seed, "--json"],
              _verdict_expect(fx, "perversity"))
    for key, fx in stock:
        if not key.startswith("induce"):
            continue
        _, loci_file = w.files(key, fx)
        w.add(f"codims:{key}", "cli", ["codims", loci_file], {"type": "codims", "exit": 0,
              "degrees": {str(d): _lattice_rows(fx.profile.locus(d)) for d in fx.profile.degrees()}})
        w.add(f"perversity-loci:{key}", "cli", ["perversity", loci_file], _verdict_expect(fx, "perversity-text"))
    orders = [12, 30, 60, 7, 20, 60]
    for key, fx in [("m3", m3), ("m4", m4), ("induce-2-32", extra[3][1]), ("tensor-1x2", dict(stock)["tensor-1x2"])]:
        # One point on each degree's declared locus, so memberships also hit.
        on_loci = [union.components[0].translate for union in fx.profile.loci.values() if union.components]
        points = _torsion_points(fx.complex.context, rng, orders) + on_loci
        _sample_job(w, f"sample:{key}", key, fx, points)


def _frontier(w: _Writer, rng: random.Random) -> None:
    m4 = mellin_constant_torus(4)
    cx_file, _ = w.files("m4", m4)
    degrees = _declared_degrees(m4)
    # Only the sub-second jobs repeat.
    for d in range(-4, 1):
        w.add(f"jump-ideals:m4:{d}", "cli", ["jump-ideals", cx_file, f"--degrees={d}..{d}", "--json"],
              {"type": "jump-ideals", "exit": 0, "degrees": {str(d): degrees[str(d)]}},
              repeat=d in (-4, 0))
    w.add("exactness:m4", "cli", ["exactness", cx_file, "--json"],
          {"type": "exactness", "exit": 0, "assumption_holds": True}, repeat=False)
    points = _torsion_points(m4.complex.context, rng, [FRONTIER_ORDER] * 2)
    _sample_job(w, "sample:m4", "m4", m4, points, repeat=False)


GENERATORS = {"ideal-route": _ideal_route, "pointwise-route": _pointwise_route, "frontier": _frontier}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files into ``workdir`` and return its job
    list.  The same (workload, seed) always gives the same files and jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    w = _Writer(workdir)
    GENERATORS[workload](w, random.Random(f"{workload}:{seed}"))
    return w.jobs


if __name__ == "__main__":
    # python workloads.py <workload> <seed> <workdir>: writes the inputs and
    # <workdir>/jobs.json.  Run as its own process so the harness, whose
    # children inherit its memory high-water mark, never imports the program.
    name, seed_text, out = sys.argv[1:]
    import jumploci

    expected_pkg = Path(__file__).resolve().parent.parent / "src" / "jumploci"
    if Path(jumploci.__file__).resolve().parent != expected_pkg:
        sys.exit(f"perfbench: imported jumploci from {jumploci.__file__}, not {expected_pkg}")
    out_dir = Path(out)
    job_list = build(name, int(seed_text), out_dir)
    (out_dir / "jobs.json").write_text(json.dumps({"jobs": job_list, "deadline_s": DEADLINE_S}))
