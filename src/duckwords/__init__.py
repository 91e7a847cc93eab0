"""Valid hook configurations on 312-avoiding permutations, 3D-Dyck and duck
words, and the bijections between them.

The names below are loaded from their module on first use (PEP 562), so
importing the package loads none of the modules until a name is asked for.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("InvalidInput", "ResourceLimit"),
    "perms": (
        "Permutation",
        "avoids_312",
        "descent_table",
        "enumerate_av312",
        "normalize",
        "parse_permutation",
    ),
    "hooks": (
        "HookConfig",
        "ValidityReport",
        "check_valid",
        "enumerate_vhcs",
        "is_reduced",
        "reduce_config",
        "verify_eq1",
    ),
    "words": (
        "RewrittenDuckWord",
        "UnderlinedDuckWord",
        "decode",
        "duck_index",
        "enumerate_3d_dyck",
        "enumerate_dyck",
        "enumerate_rewritten",
        "enumerate_underlined",
        "psi",
        "rewrite",
        "underline_all",
    ),
    "maps": (
        "hooks_projection",
        "phi",
        "phi_inverse",
        "phi_prime",
        "phi_prime_inverse",
        "tennis_lawns",
    ),
    "counts": (
        "CountTriangle",
        "IntPolynomial",
        "catalan",
        "catalan3d",
        "duck_k1_oracle",
        "duck_triangle",
        "f_poly",
        "h_poly",
        "load_golden_triangle",
        "tennis_ball_weighted",
        "underlined_triangle",
        "verify_identities",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
