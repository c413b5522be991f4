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
sampled verdicts embed their seed.

One table, ``COMMANDS``, declares every subcommand, its argument and its
options.  ``build_parser`` builds the argparse parser from it, and
``parse_well_formed`` reads a well-formed argv from it without importing
argparse, which with ``gettext`` and ``locale`` costs a short job about
7 ms.  Any other argv -- help, an abbreviation, an error -- goes to
argparse, so help, usage, every argument error and exit 2 are argparse's
own.  Both parsers hand over option text, which ``main`` reads once, with
the reader the table names, before any handler runs.

``main(argv)`` runs one command line and returns its exit status; the
tests, library callers and the benchmark's tracer run it many times in one
process.  ``run(argv)`` is the process entry (``python -m jumploci``, the
``jumploci`` script): it returns what ``main`` returns and then freezes the
heap, so that the process exits without the collector walking it.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from types import SimpleNamespace

from . import serialize
from .errors import InputError, ResourceError
from .laurent import parse_int, parse_rational
from .serialize import perversity_verdict

EXIT_PASS = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def _emit(doc: dict, as_json: bool) -> None:
    text = serialize.render_json(doc) if as_json else serialize.render_text(doc)
    sys.stdout.write(text)


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
    degrees = cx.degrees() if args.degrees is None else args.degrees
    _emit(serialize.jump_ideal_report(cx, degrees), args.json)
    return EXIT_PASS


def cmd_exactness(args) -> int:
    doc = serialize.load_complex(_read(args.complex)).exactness()
    _emit(doc, args.json)
    return EXIT_PASS if doc["assumption_holds"] else EXIT_FAILED


def cmd_perversity(args) -> int:
    text = _read(args.input)
    if text.lstrip().startswith("{"):  # a loci document is JSON
        profile, rejected = serialize.load_loci(text, strict=True)
        if args.loci is not None:
            raise InputError("--loci is only meaningful with a complex input")
    else:
        cx = serialize.load_complex(text)
        if args.loci is None:
            raise InputError("a complex input needs --loci with its declared linear loci")
        profile, _ = serialize.load_loci(_read(args.loci), strict=True)
        if profile.context != cx.context:
            raise InputError("loci and complex use different rings")
        profile = profile.with_source(cx)
    doc = perversity_verdict(profile, samples=args.samples, seed=args.seed)
    _emit(doc, args.json)
    return EXIT_PASS if doc["verdict"] == "perverse" else EXIT_FAILED


def cmd_codims(args) -> int:
    profile, rejected = serialize.load_loci(_read(args.loci), strict=False)
    _emit(serialize.codims_report(profile, rejected), args.json)
    return EXIT_INPUT if rejected else EXIT_PASS


def cmd_sample(args) -> int:
    cx = serialize.load_complex(_read(args.complex))
    points = serialize.parse_points_file(_read(args.points), cx.context)
    degrees = cx.degrees() if args.degrees is None else args.degrees
    _emit(serialize.sample_report(cx, points, degrees), args.json)
    return EXIT_PASS


def cmd_fixtures(args) -> int:
    # imported here: no analysis subcommand needs the fixture constructors
    from .fixtures import named_fixture

    params = {option: getattr(args, option) for option in ("lam", "n", "m2", "s", "rank")}
    fixture = named_fixture(args.name, args.m, **params)
    # the loaders refuse a degree beyond the cap, so no file may hold one
    serialize.check_degree(fixture.complex.k_min)
    serialize.check_degree(fixture.complex.k_max)
    complex_text = serialize.dump_complex(fixture.complex)
    loci_text = serialize.dump_loci(fixture.profile)
    outputs = [(p, t) for p, t in ((args.complex_out, complex_text), (args.loci_out, loci_text)) if p is not None]
    for path, _ in outputs:  # before any is written, so that a refused path leaves the others as they were
        target, made = Path(path), not Path(path).exists()
        try:  # appends nothing; a file this makes is removed, also behind a dangling link
            target.open("a").close()
        except OSError as exc:
            raise InputError(f"cannot write {path!r}: {exc}") from exc
        if made:
            target.resolve().unlink()
    for path, text in outputs:
        _write(path, text)
    if not outputs:
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


def _option(flag, read=None, default=None, help=None, required=False):
    """(flag, dest, reader, default, help, required): the dest is the flag
    without its dashes, hyphens as underscores, as argparse derives it; a
    reader of None keeps the text."""
    return flag, flag[2:].replace("-", "_"), read, default, help, required


def _comma_list(read):
    """The reader of a comma-separated list such as --lam 2,1/3."""
    return lambda text: [read(item) for item in text.split(",")]


def _degree_range(text: str) -> range:
    """The --degrees range a..b."""
    try:
        lo, hi = serialize.degree_range(text)
    except ValueError as exc:
        raise InputError(f"malformed degree range {text!r}, expected a..b") from exc
    if lo > hi:
        raise InputError(f"malformed degree range {text!r}, expected a..b with a <= b")
    return range(lo, hi + 1)


_DEGREES = _option("--degrees", _degree_range, help="degree range a..b")

# name -> (handler, help, positional (dest, help, choices), options); every
# subcommand also takes --json.  Both parsers read only this table.  A
# handler is named, and looked up in this module when an argv is parsed.
COMMANDS = {
    "validate": ("cmd_validate", "check a complex file", ("complex", None, None), ()),
    "jump-ideals": ("cmd_jump_ideals", "jumping ideals per degree", ("complex", None, None), (_DEGREES,)),
    "exactness": (
        "cmd_exactness", "negative-degree exactness certificate", ("complex", None, None), ()
    ),
    "perversity": (
        "cmd_perversity",
        "perversity verdict",
        ("input", "complex file (with --loci) or loci file", None),
        (
            _option("--loci", help="declared loci for a complex input"),
            _option("--samples", parse_int, 40),
            _option("--seed", parse_int, 0),
        ),
    ),
    "codims": ("cmd_codims", "codimension statistics of declared loci", ("loci", None, None), ()),
    "fixtures": (
        "cmd_fixtures",
        "emit a named fixture",
        ("name", None, ("mellin", "twist", "tensor", "induce", "sum", "shift", "free")),
        (
            _option("--m", parse_int, 1, "torus rank of the base"),
            _option("--m2", parse_int, help="torus rank of the second factor (default 1)"),
            _option("--lam", _comma_list(parse_rational), help="comma-separated twist scalars"),
            _option("--n", _comma_list(parse_int), help="comma-separated cover exponents (default 2 in every variable)"),
            _option("--s", parse_int, help="degree shift (default 1)"),
            _option("--rank", parse_int, help="free module rank (default 1)"),
            _option("--complex-out", help="write the complex document here"),
            _option("--loci-out", help="write the loci document here"),
        ),
    ),
    "sample": (
        "cmd_sample",
        "pointwise memberships at listed points",
        ("complex", None, None),
        (_option("--points", help="JSON list of points", required=True), _DEGREES),
    ),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, for every argv that
    ``parse_well_formed`` declines."""
    # imported here: a well-formed call never builds the parser
    import argparse

    parser = argparse.ArgumentParser(
        prog="jumploci",
        description="Exact perversity certification for free complexes over "
        "Laurent polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, (dest, dest_help, choices), options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON reports")
        p.add_argument(dest, help=dest_help, choices=choices)
        for flag, option_dest, _, default, option_help, required in options:
            p.add_argument(flag, dest=option_dest, default=default, help=option_help, required=required)
        p.set_defaults(fn=globals()[handler])
    return parser


def parse_well_formed(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, when argv
    is well formed, else None.

    Well formed means: argv[0] is a subcommand name; every other token is
    ``--json``, an exact flag of that subcommand followed by a value that
    does not start with "-", ``--flag=value`` with a value other than
    "--", or the one positional argument, which does not start with "-"
    (and is one of its choices, if it has any); and every required option
    is given.  Anything else -- ``-h``, ``--``, an abbreviation, a negative
    number after a space, a second positional -- returns None.  Values stay
    text, as argparse keeps them: ``main`` reads them.

    Soundness, for Python's argparse: the subcommand name is the first
    positional of the top parser, which hands every later token to the
    subparser.  There a token that does not start with "-" is never taken
    for an option, argparse matches an exact option string (also before
    "=") before it tries prefixes, and a store option takes the one token
    after it.  argparse stores that token as given and keeps the last
    occurrence of an option, as this loop does, and it strips a lone "--"
    from an option's values, which is why ``--flag=--`` is declined.
    Defaults, dests and the handler come from the same table.  So an
    accepted argv gives the namespace argparse gives, ``command`` and
    ``fn`` included; the oracle in ``tests/test_cli_parse.py`` checks this
    against argparse itself."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, (dest, _, choices), options = COMMANDS[argv[0]]
    by_flag = {flag: option_dest for flag, option_dest, *_ in options}
    values = {"command": argv[0], "json": False}
    values.update((option_dest, default) for _, option_dest, _, default, *_ in options)
    given, positionals = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            values["json"] = True
            continue
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value is declined as a dashed one
            if value.startswith("-"):
                return None
        elif value == "--":
            return None
        values[by_flag[flag]] = value
        given.add(flag)
    if len(positionals) != 1 or (choices and positionals[0] not in choices):
        return None
    if any(required and flag not in given for flag, *_, required in options):
        return None
    values[dest] = positionals[0]
    values["fn"] = globals()[handler]
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_well_formed(argv)
    if args is None:
        # help, usage and every argument error are argparse's own, exit 2 included
        args = build_parser().parse_args(argv)
    try:
        for flag, option_dest, read, *_ in COMMANDS[args.command][3]:
            value = getattr(args, option_dest)
            # argparse strips a lone "--" from an option's values, so it
            # reads --flag=-- as [], which no handler takes
            if isinstance(value, list):
                raise InputError(f"option {flag} needs a value other than '--'")
            if read is not None and isinstance(value, str):  # a default is read already
                try:
                    setattr(args, option_dest, read(value))
                except InputError as exc:
                    raise InputError(f"option {flag}: {exc}") from exc
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


def run(argv=None) -> int:
    """The process entry of ``python -m jumploci`` and the ``jumploci``
    script: ``main(argv)``, then the heap frozen, so that the process exits
    without a collector walking it.  Callers that run ``main`` more than
    once in one process call ``main`` itself and keep a collectable heap."""
    try:
        return main(argv)
    finally:
        # Soundness: gc.freeze() moves every tracked object to the permanent
        # generation, which no later collection examines, so the collections
        # of interpreter shutdown have nothing left to walk.  Its only other
        # effect is that reference cycles are not broken before the process
        # ends: no jumploci object has a finalizer, Path.write_text has
        # closed every file written, and the interpreter still flushes
        # stdout and stderr and runs exit handlers.  So stdout, stderr and
        # the exit status are unchanged, also for argparse's SystemExit
        # (help and usage errors), which this finally covers.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
