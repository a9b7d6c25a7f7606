"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["SrsCorrError", "DomainError", "EnumerationBoundError"]


class SrsCorrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SrsCorrError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EnumerationBoundError(SrsCorrError):
    """A brute-force enumeration would exceed the configured subset budget."""


def check_design(caller: str, k: int, N: int, n: int) -> None:
    """Raise DomainError, naming ``caller``, unless N >= 1, 0 <= n <= N and
    0 <= k <= N."""
    if N < 1:
        raise DomainError(f"{caller} requires N >= 1, got N={N}")
    if not 0 <= n <= N:
        raise DomainError(f"{caller} requires 0 <= n <= N, got n={n}, N={N}")
    if not 0 <= k <= N:
        raise DomainError(f"{caller} requires 0 <= k <= N, got k={k}, N={N}")
