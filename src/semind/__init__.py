"""Workbench for semi-inducibility of red/blue colored complete graphs.

One work budget, `WORK_BUDGET`, bounds every command whose cost grows with
its input: each estimates its work before doing any and passes the estimate
to `check_work`, which refuses it when it is over the budget.  Both live here,
in a module that imports nothing, so that a command loads no module it does
not run just to check its work.  The package's value types are all
`NamedTuple`s, not dataclasses, whose import alone costs a short command
about 10 ms.
"""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input from outside the program was rejected; the CLI exits 2."""


class UnsupportedSizeError(UsageError):
    pass


# The budget, in units of one vertex that `counting._extend` places in its
# prefix: about 0.25-0.3 us each, so 5e7 units are about 12-16 s on a 2-core
# Intel Xeon with Python 3.11.
WORK_BUDGET = 5e7


def as_units(count: int) -> float:
    """An int estimate as a float, inf beyond a float's range: an estimate
    that large is over any budget, and converting it would raise."""
    return float(count) if count.bit_length() <= 1023 else float("inf")


def check_work(units: float, what: str) -> None:
    """Raise UnsupportedSizeError, a UsageError, unless an estimated `units`
    of work fit the budget; `what` names what the user can reduce.  `units`
    may be an int of any size, and an estimate that is no number is
    refused."""
    if not units <= WORK_BUDGET:
        if isinstance(units, int):
            units = as_units(units)
        raise UnsupportedSizeError(
            f"estimated work {units:.3g} exceeds the work budget of {WORK_BUDGET:.0e}; "
            f"reduce {what}"
        )
