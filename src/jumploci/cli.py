"""Batch command-line front end.

Subcommands:

    validate    <complex>                     check shapes and d.d = 0
    jump-ideals <complex> [--degrees a..b]    per-degree jumping ideals
    exactness   <complex>                     negative-degree exactness of the
                                              complex and its dual
    perversity  <complex|loci> [--loci FILE]  verdict engine
    codims      <loci>                        codimension statistics
    fixtures    <name> [params]               emit fixtures as files
    sample      <complex> --points FILE       pointwise memberships

Exit status: 0 = pass/success, 1 = checked-and-failed (report emitted),
2 = input error, 3 = resource budget exceeded, 4 = internal error (a bug;
the traceback goes to stderr).  Reports are deterministic;
sampled verdicts embed their seed.  The S-pair budget can be set through
JUMPLOCI_SPAIR_BUDGET.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize
from .errors import InputError, ResourceError
from .groebner import spair_budget
from .sampling import check_sample_count
from .verdict import perversity_verdict

EXIT_PASS = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(doc: dict, as_json: bool) -> None:
    text = serialize.render_json(doc) if as_json else serialize.render_text(doc)
    sys.stdout.write(text)


def _degrees(args, cx) -> list[int]:
    """The --degrees range a..b, or every degree of the complex."""
    if not args.degrees:
        return list(cx.degrees())
    try:
        lo, hi = (int(bound) for bound in args.degrees.split(".."))
    except ValueError as exc:
        raise InputError(f"malformed degree range {args.degrees!r}, expected a..b") from exc
    return list(range(serialize.check_degree(lo), serialize.check_degree(hi) + 1))


def _parse_list(text: str, kind) -> list:
    """A comma-separated fixture parameter such as --lam 2,1/3."""
    try:
        return [kind(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed list {text!r}") from exc


def cmd_validate(args) -> int:
    cx = serialize.load_complex_shapes(_read(args.complex))
    failure = cx.validate()
    doc = {
        "report": "validate",
        "ok": failure is None,
        "detail": failure or "ok",
        "degrees": [cx.k_min, cx.k_max],
        "ranks": list(cx.ranks),
    }
    _emit(doc, args.json)
    return EXIT_PASS if failure is None else EXIT_FAILED


def cmd_jump_ideals(args) -> int:
    cx = serialize.load_complex(_read(args.complex))
    _emit(serialize.jump_ideal_report(cx, _degrees(args, cx)), args.json)
    return EXIT_PASS


def cmd_exactness(args) -> int:
    cx = serialize.load_complex(_read(args.complex))
    doc = serialize.exactness_report(cx)
    _emit(doc, args.json)
    return EXIT_PASS if doc["assumption_holds"] else EXIT_FAILED


def _sniff_is_loci(text: str) -> bool:
    head = text.lstrip()
    return head.startswith("{")


def cmd_perversity(args) -> int:
    check_sample_count(args.samples)
    text = _read(args.input)
    if _sniff_is_loci(text):
        profile, rejected = serialize.load_loci(text, strict=True)
        if args.loci:
            raise InputError("--loci is only meaningful with a complex input")
    else:
        cx = serialize.load_complex(text)
        if not args.loci:
            raise InputError(
                "a complex input needs --loci with its declared linear loci"
            )
        profile, _ = serialize.load_loci(_read(args.loci), strict=True)
        if profile.context != cx.context:
            raise InputError("loci and complex use different rings")
        profile = profile.with_source(cx)
    report = perversity_verdict(profile, samples=args.samples, seed=args.seed)
    doc = serialize.perversity_report_doc(report, args.samples, args.seed)
    _emit(doc, args.json)
    return EXIT_PASS if report.verdict == "perverse" else EXIT_FAILED


def cmd_codims(args) -> int:
    profile, rejected = serialize.load_loci(_read(args.loci), strict=False)
    doc = serialize.codims_report(profile)
    if rejected:
        doc["rejected_components"] = rejected
    _emit(doc, args.json)
    return EXIT_INPUT if rejected else EXIT_PASS


def cmd_sample(args) -> int:
    cx = serialize.load_complex(_read(args.complex))
    points = serialize.parse_points_file(_read(args.points), cx.context)
    _emit(serialize.sample_report(cx, points, _degrees(args, cx)), args.json)
    return EXIT_PASS


def _build_fixture(args):
    # imported here: no analysis subcommand needs the fixture constructors
    from .fixtures import (
        free_module_fixture,
        induce_fixture,
        mellin_constant_torus,
        renamed_torus_fixture,
        shift_fixture,
        sum_fixture,
        tensor_fixture,
        twist_fixture,
    )

    name = args.name
    if name == "mellin":
        return mellin_constant_torus(args.m)
    if name == "free":
        return free_module_fixture(args.m, args.rank)
    if name == "twist":
        if not args.lam:
            raise InputError("the twist fixture needs --lam")
        return twist_fixture(mellin_constant_torus(args.m), _parse_list(args.lam, Fraction))
    if name == "induce":
        return induce_fixture(mellin_constant_torus(args.m), _parse_list(args.n, int))
    if name == "tensor":
        return tensor_fixture(
            mellin_constant_torus(args.m), renamed_torus_fixture(args.m2, args.m)
        )
    if name == "sum":
        base = mellin_constant_torus(args.m)
        lams = _parse_list(args.lam, Fraction) if args.lam else [Fraction(2)] * args.m
        return sum_fixture(base, twist_fixture(base, lams))
    if name == "shift":
        return shift_fixture(mellin_constant_torus(args.m), args.s)
    raise InputError(f"unknown fixture {name!r}")


def cmd_fixtures(args) -> int:
    fixture = _build_fixture(args)
    # the loaders refuse a degree beyond the cap, so no file may hold one
    serialize.check_degree(fixture.complex.k_min)
    serialize.check_degree(fixture.complex.k_max)
    complex_text = serialize.dump_complex(fixture.complex)
    loci_text = serialize.dump_loci(fixture.profile)
    if args.complex_out:
        _write(args.complex_out, complex_text)
    if args.loci_out:
        _write(args.loci_out, loci_text)
    if not args.complex_out and not args.loci_out:
        sys.stdout.write(complex_text)
        sys.stdout.write(loci_text)
    else:
        doc = {
            "report": "fixtures",
            "name": fixture.name,
            "expected_verdict": fixture.expected_verdict,
            "complex_out": args.complex_out,
            "loci_out": args.loci_out,
        }
        _emit(doc, args.json)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON reports")
    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Exact perversity certification for free complexes over "
        "Laurent polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex file", parents=[common])
    p.add_argument("complex")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("jump-ideals", parents=[common], help="jumping ideals per degree")
    p.add_argument("complex")
    p.add_argument("--degrees", help="degree range a..b")
    p.set_defaults(fn=cmd_jump_ideals)

    p = sub.add_parser("exactness", parents=[common], help="negative-degree exactness certificate")
    p.add_argument("complex")
    p.set_defaults(fn=cmd_exactness)

    p = sub.add_parser("perversity", parents=[common], help="perversity verdict")
    p.add_argument("input", help="complex file (with --loci) or loci file")
    p.add_argument("--loci", help="declared loci for a complex input")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_perversity)

    p = sub.add_parser("codims", parents=[common], help="codimension statistics of declared loci")
    p.add_argument("loci")
    p.set_defaults(fn=cmd_codims)

    p = sub.add_parser("fixtures", parents=[common], help="emit a named fixture")
    p.add_argument(
        "name",
        choices=["mellin", "twist", "tensor", "induce", "sum", "shift", "free"],
    )
    p.add_argument("--m", type=int, default=1, help="torus rank of the base")
    p.add_argument("--m2", type=int, default=1, help="torus rank of the second factor")
    p.add_argument("--lam", help="comma-separated twist scalars")
    p.add_argument("--n", default="2", help="comma-separated cover exponents")
    p.add_argument("--s", type=int, default=1, help="degree shift")
    p.add_argument("--rank", type=int, default=1, help="free module rank")
    p.add_argument("--complex-out", help="write the complex document here")
    p.add_argument("--loci-out", help="write the loci document here")
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("sample", parents=[common], help="pointwise memberships at listed points")
    p.add_argument("complex")
    p.add_argument("--points", required=True, help="JSON list of points")
    p.add_argument("--degrees", help="degree range a..b")
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spair_budget()  # a malformed budget is refused by every subcommand
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception:
        # a bug must not pass as "checked and failed" (1); traceback is
        # imported only here, since no job that works needs it
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
