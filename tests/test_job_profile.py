"""``tools/job_profile.py`` counts never-entered lines per function.

The count is checked on a small source run in this process under the same
``sys.setprofile`` hook the tool's child process uses, so the first lines it
records (``co_firstlineno``, a decorator's line for a decorated function)
are the ones the count reads.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''\
# a module of six functions, three of them entered
def identity(f):
    return f


def entered():
    def inner():
        return 1

    return 0


@identity
def decorated():
    return 2


@identity
def skipped():
    def nested():
        return 3

    return nested


class Box:
    def opened(self):
        return 4

    def shut(self):
        return 5
'''


def _job_profile():
    spec = importlib.util.spec_from_file_location("job_profile", ROOT / "tools" / "job_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entered_lines(source: str) -> set[int]:
    entered = set()

    def note(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<synthetic>":
            entered.add(frame.f_code.co_firstlineno)

    namespace = {}
    sys.setprofile(note)
    try:
        exec(compile(source, "<synthetic>", "exec"), namespace)
        namespace["entered"]()
        namespace["decorated"]()
        namespace["Box"]().opened()
    finally:
        sys.setprofile(None)
    return entered


def test_unentered_functions_are_counted_whole_by_qualified_name():
    found = _job_profile().unentered_functions(SOURCE, _entered_lines(SOURCE))
    # an unentered function counts from its first decorator to its last line,
    # its nested functions included; an entered one is searched inside
    assert found == {"entered.<locals>.inner": 2, "skipped": 6, "Box.shut": 2}
