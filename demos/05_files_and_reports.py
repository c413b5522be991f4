"""File formats and deterministic reports, in-process and through the CLI.

Complexes travel as structured text (ring block, degree range, ranks, one
matrix per differential in the polynomial grammar); loci travel as JSON
with exact rational strings.  Reports render to stable text or JSON, and
sampled verdicts always carry their seed, so identical inputs and seeds
give byte-identical output.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from jumploci import perversity_verdict, serialize
from jumploci.fixtures import mellin_constant_torus

fx = mellin_constant_torus(2)

complex_text = serialize.dump_complex(fx.complex)
print("---- complex document ----")
print(complex_text)

loci_text = serialize.dump_loci(fx.profile)
print("---- loci document (first lines) ----")
print("\n".join(loci_text.splitlines()[:8]), "\n  ...")

# Round trip: loading reproduces the same canonical documents.
assert serialize.dump_complex(serialize.load_complex(complex_text)) == complex_text
profile, rejected = serialize.load_loci(loci_text)
assert not rejected and serialize.dump_loci(profile) == loci_text
print("round trips: ok")

# Reports are plain dicts with sorted, stable fields; the verdict engine
# returns its report in exactly this form.
doc = perversity_verdict(fx.profile, samples=20, seed=7)
print("---- verdict report (text rendering, first lines) ----")
print("\n".join(serialize.render_text(doc).splitlines()[:6]), "\n  ...")

# The same machinery drives the command line.
with tempfile.TemporaryDirectory() as tmp:
    cx_path = Path(tmp) / "m2.complex"
    loci_path = Path(tmp) / "m2.loci"
    cx_path.write_text(complex_text)
    loci_path.write_text(loci_text)
    result = subprocess.run(
        [sys.executable, "-m", "jumploci", "perversity", str(cx_path),
         "--loci", str(loci_path), "--samples", "20", "--seed", "7"],
        capture_output=True, text=True,
    )
    print("CLI exit status:", result.returncode)
    verdict_line = [l for l in result.stdout.splitlines() if l.startswith("verdict")]
    print("CLI", verdict_line[0])
