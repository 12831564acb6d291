"""Nonabelian tensor products of Lie algebra pairs over the rationals.

`import tensoralg` loads the engine: `linalg`, `liealg`, `pairs` and
`tensor`.  The document layer (`catalog`), the psi map (`gamma`) and the
verifier (`verify`) load the first time one of their names is read from the
package, so a caller that only builds tensor products never compiles them.
"""

from importlib import import_module as _import_module

from .liealg import (
    AlgebraHom,
    AlgebraSubspace,
    LieAlgebra,
    NotAnIdealError,
    StructureError,
    StructureViolation,
    abelianization,
    center,
    direct_sum,
    quotient_algebra,
    validate_structure,
)
from .linalg import LinalgError, LinearMap, Subspace, kernel, parse_scalar
from .pairs import (
    Pair,
    QuotientPair,
    complement_condition,
    direct_sum_pair,
    make_pair,
    pair_full,
    pair_is_clean,
    quotient_pair,
    relative_abelianization_dim,
)
from .tensor import (
    DerivedMaps,
    NonabelianTensor,
    TensorConstructionError,
    closure,
    construct_tensor,
    diagonal,
    kappa_maps,
    relation_seed,
)

# The names of the layers that load on first use, by module.  Each read goes
# to the module, and nothing is stored here: a function the benchmark tracer
# swaps in while installed must not outlive it in this namespace.
_LAZY = {
    name: module
    for module, names in (
        ("catalog", "AlgebraDocument DocumentError PairDocument SelectorError abelian algebra_from_document"
                    " catalog_pairs catalog_selectors heisenberg load_path nonabelian2 pair_center"
                    " pair_from_document parse resolve_selector serialize serialize_report"),
        ("gamma", "GammaSpace PsiDefect gamma_dim psi_map psi_welldefined"),
        ("verify", "CheckRecord VerificationReport check_names verify_abelian_basis verify_diagram"
                   " verify_diagonal_descent verify_j2_decomposition verify_ker_pi verify_kunneth"
                   " verify_pair verify_splitting"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "AlgebraDocument",
    "AlgebraHom",
    "AlgebraSubspace",
    "CheckRecord",
    "DerivedMaps",
    "DocumentError",
    "GammaSpace",
    "LieAlgebra",
    "LinalgError",
    "LinearMap",
    "NonabelianTensor",
    "NotAnIdealError",
    "Pair",
    "PairDocument",
    "PsiDefect",
    "QuotientPair",
    "SelectorError",
    "StructureError",
    "StructureViolation",
    "Subspace",
    "TensorConstructionError",
    "VerificationReport",
    "abelian",
    "abelianization",
    "algebra_from_document",
    "catalog_pairs",
    "catalog_selectors",
    "center",
    "check_names",
    "closure",
    "complement_condition",
    "construct_tensor",
    "diagonal",
    "direct_sum",
    "direct_sum_pair",
    "gamma_dim",
    "heisenberg",
    "kappa_maps",
    "kernel",
    "load_path",
    "make_pair",
    "nonabelian2",
    "pair_center",
    "pair_from_document",
    "pair_full",
    "pair_is_clean",
    "parse",
    "parse_scalar",
    "psi_map",
    "psi_welldefined",
    "quotient_algebra",
    "quotient_pair",
    "relation_seed",
    "relative_abelianization_dim",
    "resolve_selector",
    "serialize",
    "serialize_report",
    "validate_structure",
    "verify_abelian_basis",
    "verify_diagram",
    "verify_diagonal_descent",
    "verify_j2_decomposition",
    "verify_ker_pi",
    "verify_kunneth",
    "verify_pair",
    "verify_splitting",
]
