"""Shared exception types, and the default bound that brute-force searches
enforce with ResourceLimit."""

# Default cap on n for exhaustive enumeration over Av_n(312) and for a
# permutation whose hook configurations are listed.
DEFAULT_BRUTE_BOUND = 10


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed the configured brute-force bound."""


def check_brute_bound(n: int, bound: int) -> None:
    """InvalidInput for a negative bound; ResourceLimit if n exceeds it."""
    if bound < 0:
        raise InvalidInput(f"brute-force bound must be nonnegative, got {bound}")
    if n > bound:
        raise ResourceLimit(f"n={n} exceeds brute-force bound {bound}")
