"""``python -m jumploci``: one command line, one process.  It exits through
``cli.run``, which runs ``cli.main`` and then freezes the heap, so the
process ends without a garbage collector walking it."""

import sys

from .cli import run

sys.exit(run())
