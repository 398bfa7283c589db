"""Workbench for semi-inducibility of red/blue colored complete graphs."""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input from outside the program was rejected; the CLI exits 2."""
