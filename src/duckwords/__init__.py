"""Valid hook configurations on 312-avoiding permutations, 3D-Dyck and duck
words, and the bijections between them."""

__version__ = "0.1.0"

from .errors import InvalidInput, ResourceLimit
from .perms import (
    Permutation,
    avoids,
    avoids_312,
    contains_pattern,
    descent_table,
    enumerate_av312,
    left_to_right_maxima,
    normalize,
    parse_permutation,
)
from .hooks import (
    HookConfig,
    ValidityReport,
    check_valid,
    enumerate_vhcs,
    hooks_projection,
    is_reduced,
    make_config,
    reduce_config,
    verify_eq1,
)
from .words import (
    RewrittenDuckWord,
    UnderlinedDuckWord,
    decode,
    duck_index,
    enumerate_3d_dyck,
    enumerate_dyck,
    enumerate_rewritten,
    enumerate_underlined,
    rewrite,
    rewrite_duck_word,
    underline_all,
    validate_underlined,
    yz_projection,
)
from .maps import (
    contract,
    expand,
    phi,
    phi_inverse,
    phi_prime,
    phi_prime_inverse,
    psi,
    tennis_lawns,
)
from .counts import (
    CountTriangle,
    IntPolynomial,
    catalan,
    catalan3d,
    duck_k1_oracle,
    duck_triangle,
    f_poly,
    h_poly,
    load_golden_triangle,
    tennis_ball_weighted,
    underlined_triangle,
    verify_identities,
)
