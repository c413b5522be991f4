"""Traced job wrapper: records spans around calls into each module's public
functions, from outside the program.

    python perfbench/tracer.py <spans-out> <job-id> cli|lib <args...>

Each function is patched where its caller looks it up: names bound by
``from ... import`` (``loci.field_rank``, ``verdict.membership_at_point``,
``verdict.sample_points``, ``cli.perversity_verdict``) are replaced in the
importing module, module globals (``groebner.buchberger``,
``complexes.minor_generators``, ...) in their own module, and methods on
their class.  Spans (name, start, end, parent, attributes) stay in memory
and are written to ``<spans-out>`` as JSON when the job ends, also when the
harness stops it with SIGTERM at its deadline.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path


class Recorder:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.specialisations: set = set()

    def open_names(self):
        return (self.spans[i]["name"] for i in reversed(self.stack))

    def wrap(self, fn, name, attrs=None, name_fn=None):
        spans, stack, clock, t0 = self.spans, self.stack, time.perf_counter, self.t0

        def wrapper(*args, **kwargs):
            span = {
                "name": name_fn(args, kwargs) if name_fn else name,
                "start": clock() - t0,
                "end": None,
                "parent": stack[-1] if stack else None,
            }
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = clock() - t0
                stack.pop()
                if attrs is not None:
                    span["attrs"] = attrs(args, kwargs, result)

        return wrapper


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def install(rec: Recorder) -> None:
    """Patch every traced function at each site its callers look it up."""
    from jumploci import cli, complexes, cyclotomic, groebner, laurent, lattices, loci, sampling, serialize, verdict

    def patch(sites, name, attrs=None, name_fn=None):
        """Replace the function at its home (first site) and at every site
        that bound it by import."""
        fn = getattr(*sites[0])
        wrapper = rec.wrap(fn, name, attrs, name_fn)
        for owner, attr in sites:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the traced function")
            setattr(owner, attr, wrapper)

    def buchberger_name(args, kwargs):
        if _arg(args, kwargs, 1, "order").name == "elim":
            return "groebner.saturate"
        for open_name in rec.open_names():
            if open_name == "groebner.LaurentIdeal.radical_contains":
                return "groebner.rabinowitsch"
            if open_name == "groebner.LaurentIdeal.groebner_basis":
                break
        return "groebner.gb_grevlex"

    def buchberger_attrs(args, kwargs, result):
        gens = _arg(args, kwargs, 0, "generators")
        return {"gens_in": len(gens), "basis_out": len(result or ())}

    def field_rank_attrs(args, kwargs, result):
        rows = _arg(args, kwargs, 0, "rows")
        if not rows or not rows[0]:
            return {"order_max": 0, "phi_work": 0}
        entry = rows[0][0]
        return {"order_max": entry.order, "phi_work": len(rows) * len(rows[0]) * len(entry.coeffs)}

    def membership_attrs(args, kwargs, result):
        cx = _arg(args, kwargs, 0, "complex_")
        degree = _arg(args, kwargs, 1, "degree")
        point = _arg(args, kwargs, 2, "point")
        if cx.rank(degree):
            rec.specialisations.add((id(cx), degree, point))
            rec.specialisations.add((id(cx), degree - 1, point))
        return {}

    LI = groebner.LaurentIdeal
    patch([(groebner, "buchberger")], None, buchberger_attrs, buchberger_name)
    patch([(LI, "groebner_basis")], "groebner.LaurentIdeal.groebner_basis")
    patch([(LI, "radical_contains")], "groebner.LaurentIdeal.radical_contains")
    patch([(LI, "codimension")], "groebner.LaurentIdeal.codimension")
    patch([(complexes, "minor_generators")], "complexes.minor_generators",
          lambda a, k, r: {"generators_out": len(r or ())})
    patch([(complexes, "generic_rank")], "complexes.generic_rank")
    patch([(complexes.FreeComplex, "validate")], "complexes.FreeComplex.validate")
    patch([(complexes.Matrix, "evaluate")], "complexes.Matrix.evaluate")
    patch([(cyclotomic, "field_rank"), (loci, "field_rank")], "cyclotomic.field_rank", field_rank_attrs)
    patch([(loci, "membership_at_point"), (verdict, "membership_at_point")],
          "loci.membership_at_point", membership_attrs)
    patch([(loci, "propagation_check")], "loci.propagation_check")
    patch([(loci, "radical_equality_pairs")], "loci.radical_equality_pairs")
    patch([(loci, "depth_bounds")], "loci.depth_bounds")
    patch([(lattices, "smith_normal_form")], "lattices.smith_normal_form")
    patch([(lattices, "hermite_normal_form")], "lattices.hermite_normal_form")
    patch([(lattices.LinearUnion, "contains_point")], "lattices.LinearUnion.contains_point")
    patch([(lattices.LinearUnion, "codim_stats")], "lattices.LinearUnion.codim_stats")
    patch([(sampling, "sample_points"), (verdict, "sample_points")], "sampling.sample_points",
          lambda a, k, r: {"points_out": len(r or ())})
    patch([(verdict, "spot_check_profile")], "verdict.spot_check_profile")
    patch([(verdict, "perversity_verdict"), (cli, "perversity_verdict")], "verdict.perversity_verdict")
    patch([(laurent, "parse_poly")], "laurent.parse_poly")
    patch([(serialize, "load_complex")], "serialize.load_complex")
    patch([(serialize, "load_loci")], "serialize.load_loci")
    patch([(serialize, "render_text")], "serialize.render")
    patch([(serialize, "render_json")], "serialize.render")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    spans_out, job_id, kind, rest = argv[0], argv[1], argv[2], argv[3:]
    rec = Recorder()
    signal.signal(signal.SIGTERM, _terminate)
    code = 1
    try:
        install(rec)
        if kind == "cli":
            from jumploci import cli

            code = rec.wrap(cli.main, "cli.main")(rest)
        else:
            import libjob

            code = rec.wrap(libjob.main, "libjob.main")(rest)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        doc = {
            "job": job_id,
            "spans": rec.spans,
            "counters": {"distinct_specialisations": len(rec.specialisations)},
        }
        Path(spans_out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
