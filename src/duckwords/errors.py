"""Shared exception types, the check on sizes, and the default bound that
brute-force searches enforce with ResourceLimit."""

# Default cap on n for exhaustive enumeration over Av_n(312) and for a
# permutation whose hook configurations are listed.
DEFAULT_BRUTE_BOUND = 10


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed the configured brute-force bound."""


def check_size(value, name: str) -> None:
    """InvalidInput unless value is an int (not a bool) and nonnegative."""
    if type(value) is not int:
        raise InvalidInput(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise InvalidInput(f"{name} must be nonnegative")


def check_brute_bound(n: int, bound: int) -> None:
    """InvalidInput unless n and the bound are sizes; ResourceLimit if n exceeds it."""
    check_size(n, "n")
    check_size(bound, "brute-force bound")
    if n > bound:
        raise ResourceLimit(f"n={n} exceeds brute-force bound {bound}")
