"""Exceptions shared by the kernels and the command line."""


class InternalError(RuntimeError):
    """A failed internal consistency check: a bug, not a bad configuration."""
