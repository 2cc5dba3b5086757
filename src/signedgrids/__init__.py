"""Exact enumeration of grid classes of signed permutations.

Every export is loaded from its module on first use (PEP 562), so
`import signedgrids` loads no submodule and a command pays only for the
modules it runs.
"""
import importlib

_EXPORTS = {
    "distance": (
        "Family",
        "ResourceLimitError",
        "distance_polynomial",
        "pancake_pi",
        "reversal_pi",
        "sorting_sequence",
    ),
    "gridclass": (
        "LengthHistogram",
        "closure_histogram",
        "complete_and_compact",
        "enumerate_gridclass",
        "grid_member",
        "length_histogram",
    ),
    "oracle": ("DistanceHistogram", "ball", "bfs_histogram", "count_within", "verify"),
    "perm": (
        "SignedPerm",
        "block_reversal",
        "compactify",
        "contains",
        "delete",
        "format_perm",
        "identity",
        "inflate",
        "is_compact",
        "parse_perm",
        "prefix_reversal",
        "standardize",
    ),
    "poly": ("Polynomial", "binomial_basis_poly", "from_histogram", "gregory_newton"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
