"""The benchmark's traced run patches engine functions by name
(``groebner.buchberger``, ``LaurentIdeal.groebner_basis``, ...).  A refactor
that moves one of them breaks the benchmark, not the program, so this runs
the tracer once on a small job and checks that it still records Groebner
spans."""

import json
import os
import subprocess
import sys
from pathlib import Path

from jumploci import serialize
from jumploci.fixtures import mellin_constant_torus

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_records_groebner_spans(tmp_path):
    (tmp_path / "m2.complex").write_text(serialize.dump_complex(mellin_constant_torus(2).complex))
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), "smoke", "cli",
         "jump-ideals", "m2.complex"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    names = [span["name"] for span in json.loads(spans_out.read_text())["spans"]]
    assert any(name.startswith("groebner.") for name in names), names
