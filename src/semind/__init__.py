"""Workbench for semi-inducibility of red/blue colored complete graphs.

One work budget, `WORK_BUDGET`, bounds every command whose cost grows with
its input: each estimates its work before doing any and passes the estimate
to `check_work`, which refuses it when it is over the budget.  Both live here,
in a module that imports nothing, so that a command loads no module it does
not run just to check its work.  `Record` and `Frozen`, the bases of the
slotted value types, live here for the same reason.  The package's value
types are `NamedTuple`s and slotted classes, not dataclasses, whose import
alone costs a short command about 10 ms.
"""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input from outside the program was rejected; the CLI exits 2."""


class UnsupportedSizeError(UsageError):
    pass


class Record:
    """Base of the slotted value types that are filled in after they are
    built: they compare equal, and print, field by field over `__slots__`,
    and are unhashable because they change."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen:
    """Base of the slotted value types that do not change once built: each
    sets its `__slots__` in `__init__` through `object.__setattr__`, and any
    later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


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
