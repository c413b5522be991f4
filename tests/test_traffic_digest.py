"""Every benchmark job's exit status, stdout, stderr and generated inputs, frozen.

``tools/traffic_digest.py`` runs all benchmark jobs (seed 7) in this process
and hashes what each one prints, on stdout and on stderr, and every input
file it was given.  A change that should leave reports, refusal messages,
exit statuses and fixtures byte-identical must reproduce the frozen digest.  After a deliberate output change, regenerate
it with

    python tools/traffic_digest.py 7 tests/golden/traffic-digest-seed7.json

and justify the change in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "traffic-digest-seed7.json"


def _traffic_digest():
    spec = importlib.util.spec_from_file_location(
        "traffic_digest", ROOT / "tools" / "traffic_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traffic_digest_matches_golden():
    assert _traffic_digest().digest(7) == json.loads(GOLDEN.read_text())
