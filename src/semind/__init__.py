"""Workbench for semi-inducibility of red/blue colored complete graphs.

One work budget, `WORK_BUDGET`, bounds every command whose cost grows with
its input: each estimates its work before doing any and passes the estimate
to `check_work`, which refuses it when it is over the budget.  Both live here,
in a module that imports nothing, so that a command loads no module it does
not run just to check its work.
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


def check_work(units: float, what: str) -> None:
    """Raise UnsupportedSizeError, a UsageError, unless an estimated `units`
    of work fit the budget; `what` names what the user can reduce."""
    if units > WORK_BUDGET:
        raise UnsupportedSizeError(
            f"estimated work {units:.3g} exceeds the work budget of {WORK_BUDGET:.0e}; "
            f"reduce {what}"
        )
