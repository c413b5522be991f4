"""Exceptions shared across the package.

InputError covers malformed user input (files, mismatched rings, invalid
lattices); ResourceError covers aborted computations that hit a configured
budget (S-pair limit, minor-size cap, cyclotomic-order cap).  The CLI maps them to exit codes 2
and 3 respectively.
"""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class ResourceError(RuntimeError):
    """A computation exceeded its configured resource budget."""
