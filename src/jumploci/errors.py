"""Exceptions shared across the package.

InputError covers malformed user input (files, mismatched rings, invalid
lattices); ResourceError covers aborted computations that hit a configured
budget (the S-pair limit and the minor-size, cyclotomic-order,
coefficient-growth, induction-cover, fixture-ring, induced-fixture, degree,
sample-count, exponent, module-rank, loci-component and lattice-entry
caps).  The CLI maps them to exit codes 2 and 3 respectively, and any other
exception, a bug, to exit code 4.  ``check_cap`` raises the caps whose
message is just the value and its cap.
"""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceError(RuntimeError):
    """A computation exceeded its configured resource budget."""


def check_cap(value: int, cap: int, what: str) -> None:
    """Refuse ``value`` above ``cap`` with "<what> <value> exceeds the cap of <cap>"."""
    if value > cap:
        raise ResourceError(f"{what} {value} exceeds the cap of {cap}")
