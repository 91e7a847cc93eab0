import pytest

from duckwords.errors import InvalidInput
from duckwords.hooks import check_valid, enumerate_red_vhcs_av312, is_reduced
from duckwords.perms import avoids_312

BRUTE_KMAX = 4


@pytest.fixture(scope="session")
def maximal_configs():
    """maximal_configs[k - 1]: every reduced 312-avoiding configuration with
    k hooks on 3k points, for k <= BRUTE_KMAX, built once per session by
    exhaustive search."""
    return tuple(
        tuple(enumerate_red_vhcs_av312(3 * k, k)) for k in range(1, BRUTE_KMAX + 1)
    )


def in_domain(c) -> bool:
    """phi_prime's domain as the paper states it, checked directly: conditions
    (i)-(iii), 312-avoiding and reduced.  phi's is the part with 3k points.
    The reference for the check that `maps.phi_prime` makes as it reads c."""
    return check_valid(c).valid and avoids_312(c.perm) and is_reduced(c)


def accepts(f, c) -> bool:
    """Whether f(c) returns rather than raising InvalidInput."""
    try:
        f(c)
    except InvalidInput:
        return False
    return True


def dyck3_letters(k, choose):
    """A 3D-Dyck word of length 3k, one letter at a time, each picked by
    `choose` from the letters legal there."""
    x = y = z = 0
    out = []
    while z < k:
        legal = [ch for ch, ok in (("X", x < k), ("Y", y < x), ("Z", z < y)) if ok]
        ch = choose(legal)
        x, y, z = x + (ch == "X"), y + (ch == "Y"), z + (ch == "Z")
        out.append(ch)
    return "".join(out)
