"""Library certification job: the ideal-route checks no CLI subcommand reaches.

    python perfbench/libjob.py <complex-file>...

Loads each complex in turn and runs ``propagation_check``,
``radical_equality_pairs`` and ``depth_bounds`` on it in one process, the
way a batch certifier calls the library, then prints one JSON document with
a record per complex.  Exit status follows the CLI: 0 all certificates hold,
1 some certificate fails, 2 input error, 3 resource budget exceeded.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    from jumploci import serialize
    from jumploci.errors import InputError, ResourceError
    from jumploci.loci import depth_bounds, propagation_check, radical_equality_pairs

    if not argv:
        print("usage: libjob.py <complex-file>...", file=sys.stderr)
        return 2
    records = []
    holds = True
    for path in argv:
        try:
            cx = serialize.load_complex(Path(path).read_text())
            prop = propagation_check(cx)
            radical = radical_equality_pairs(cx)
            depth = depth_bounds(cx)
        except (InputError, OSError) as exc:
            print(f"input error: {path}: {exc}", file=sys.stderr)
            return 2
        except ResourceError as exc:
            print(f"resource cap: {path}: {exc}", file=sys.stderr)
            return 3
        records.append({
            "complex": path,
            "propagation": {"ok": prop.ok, "provenance": prop.provenance},
            "radical_equality": [[d, equal] for d, equal in radical],
            "depth_bounds": [
                [d, "inf" if codim == math.inf else codim, bound, ok] for d, codim, bound, ok in depth
            ],
        })
        holds = holds and prop.ok and all(e for _, e in radical) and all(row[3] for row in depth)
    sys.stdout.write(json.dumps({"complexes": records}, sort_keys=True) + "\n")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
