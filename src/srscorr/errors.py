"""Exception types shared across the package, and the two helpers that raise them with a one-line message for any
int: ``check_at_least`` refuses an argument below its lower bound, and ``check_budget`` a cost past its budget."""

from __future__ import annotations

from decimal import Decimal

__all__ = ["SrsCorrError", "DomainError", "EnumerationBoundError", "int_str"]


class SrsCorrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SrsCorrError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EnumerationBoundError(DomainError):
    """A brute-force enumeration would exceed the subset budget."""


def int_str(value: int) -> str:
    """Decimal digits of an int of any length.  ``str(int)`` and ``int(str)``
    refuse more digits than the interpreter's process-wide limit (4300 by
    default), which this package leaves unchanged; ``Decimal`` converts
    exactly at any length, both ways, but renders more slowly below it."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


def check_at_least(caller: str, low: int, **values: int) -> None:
    """Raise DomainError, naming ``caller``, for the first of ``values`` below
    ``low``: ``CALLER requires NAME >= LOW, got NAME=VALUE``."""
    for name, value in values.items():
        if value < low:
            raise DomainError(f"{caller} requires {name} >= {low}, got {name}={int_str(value)}")


def check_design(caller: str, k: int, N: int, n: int) -> None:
    """Raise DomainError, naming ``caller``, unless N >= 1, 0 <= n <= N and
    0 <= k <= N."""
    check_at_least(caller, 1, N=N)
    if not 0 <= n <= N:
        raise DomainError(f"{caller} requires 0 <= n <= N, got n={int_str(n)}, N={int_str(N)}")
    if not 0 <= k <= N:
        raise DomainError(f"{caller} requires 0 <= k <= N, got k={int_str(k)}, N={int_str(N)}")


def check_budget(caller: str, what: str, cost: int, budget: int, error: type[DomainError] = DomainError) -> None:
    """Raise ``error``, naming ``caller``, when ``cost`` is past ``budget``: every budget is checked here,
    before its work.  The message names the budget, never the cost, so it builds for any cost."""
    if cost > budget:
        raise error(f"{caller}: {what} is past the budget of {budget}")
