"""Outcome checker, independent of the route under test.

Expectations come from the fixtures' declared loci and verdicts (see
``workloads.py``).  Codimensions are recomputed here from the declared
lattice rows by plain rational elimination, so neither the Groebner route
nor the lattice module's Smith/Hermite code decides what a job should print.
"""

from __future__ import annotations

import json
from fractions import Fraction


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def declared_codim(lattices: list[list[list[int]]]):
    """Codimension of a declared union: the least lattice rank among its
    components; "inf" for the empty union."""
    if not lattices:
        return "inf"
    return min(rational_rank(rows) for rows in lattices)


def _parse_text(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _check_jump_ideals(doc: dict, expect: dict) -> str | None:
    got = {str(e["degree"]): e for e in doc["degrees"]}
    if sorted(got) != sorted(expect["degrees"]):
        return f"degrees {sorted(got)} != {sorted(expect['degrees'])}"
    for d, lattices in expect["degrees"].items():
        entry = got[d]
        codim = str(declared_codim(lattices))
        whole = any(rational_rank(rows) == 0 for rows in lattices)
        if entry["codimension"] != codim:
            return f"degree {d}: codimension {entry['codimension']} != {codim}"
        if entry["empty"] != (not lattices):
            return f"degree {d}: empty {entry['empty']} != {not lattices}"
        if entry["whole_space"] != whole:
            return f"degree {d}: whole_space {entry['whole_space']} != {whole}"
    return None


def _check_certify(doc: dict, expect: dict) -> str | None:
    got = [rec["complex"] for rec in doc["complexes"]]
    if got != list(expect["complexes"]):
        return f"certified {got}, expected {list(expect['complexes'])}"
    for rec in doc["complexes"]:
        name, degrees = rec["complex"], expect["complexes"][rec["complex"]]
        prop = rec["propagation"]
        if not prop["ok"] or prop["provenance"] != "exact":
            return f"{name}: propagation {prop}"
        bad = [d for d, equal in rec["radical_equality"] if not equal]
        if bad:
            return f"{name}: radical equality fails in degrees {bad}"
        if sorted(str(row[0]) for row in rec["depth_bounds"]) != sorted(degrees):
            return f"{name}: depth bounds cover other degrees than the complex"
        for d, codim, bound, ok in rec["depth_bounds"]:
            want = declared_codim(degrees[str(d)])
            if str(codim) != str(want) or not ok:
                return f"{name}: depth bound degree {d}: codim {codim} (declared {want}), ok={ok}"
    return None


def _check_codims(text: str, expect: dict) -> str | None:
    flat = _parse_text(text)
    got: dict[str, list[int]] = {}
    i = 0
    while f"degrees[{i}].degree" in flat:
        d = flat[f"degrees[{i}].degree"]
        codims = []
        j = 0
        while f"degrees[{i}].components[{j}].codim" in flat:
            codims.append(int(flat[f"degrees[{i}].components[{j}].codim"]))
            j += 1
        got[d] = sorted(codims)
        i += 1
    want = {d: sorted(rational_rank(rows) for rows in lats) for d, lats in expect["degrees"].items()}
    if got != want:
        return f"component codims {got} != declared {want}"
    return None


def _check_sample(doc: dict, expect: dict) -> str | None:
    if len(doc["points"]) != len(next(iter(expect["members"].values()), [])):
        return "point count differs"
    for k, row in enumerate(doc["points"]):
        for d, members in expect["members"].items():
            got = row["memberships"][d]
            if got["member"] != members[k] or got["member"] != (got["dim"] > 0):
                return f"point {k} degree {d}: {got} but declared member={members[k]}"
    return None


def check(expect: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None when the job's outcome matches its expectation, else the reason."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}: {stderr.strip()[-200:]}"
    kind = expect["type"]
    if kind == "exit-only":
        return None if expect["stderr"] in stderr else f"stderr lacks {expect['stderr']!r}"
    try:
        if kind == "codims":
            return _check_codims(stdout, expect)
        if kind == "perversity-text":
            verdict = _parse_text(stdout).get("verdict")
            return None if verdict == expect["verdict"] else f"verdict {verdict} != {expect['verdict']}"
        doc = json.loads(stdout)
        if kind == "jump-ideals":
            return _check_jump_ideals(doc, expect)
        if kind == "exactness":
            got = doc["assumption_holds"]
            return None if got == expect["assumption_holds"] else f"assumption_holds {got}"
        if kind == "perversity":
            got = doc["verdict"]
            return None if got == expect["verdict"] else f"verdict {got} != {expect['verdict']}"
        if kind == "certify":
            return _check_certify(doc, expect)
        if kind == "sample":
            return _check_sample(doc, expect)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown expectation type {kind!r}")
