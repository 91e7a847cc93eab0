import pytest

from duckwords.hooks import enumerate_red_vhcs_av312

BRUTE_KMAX = 4


@pytest.fixture(scope="session")
def maximal_configs():
    """maximal_configs[k - 1]: every reduced 312-avoiding configuration with
    k hooks on 3k points, for k <= BRUTE_KMAX, built once per session by
    exhaustive search."""
    return tuple(
        tuple(enumerate_red_vhcs_av312(3 * k, k)) for k in range(1, BRUTE_KMAX + 1)
    )
