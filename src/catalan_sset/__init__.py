"""The Catalan simplicial set in three presentations, nerves of finite
posetal (monoidal) 2-categories, and brute-force classification checks.

The public names below are resolved on first access (PEP 562), so importing
the package, or one verb of its CLI, loads only the modules that are used.
"""

from importlib import import_module

# ``catalogue`` is bound here, not resolved lazily: it names a submodule too,
# and the first import of ``catalan_sset.catalogue`` would bind the module
# over a name that was not bound yet.
from .catalogue import catalogue

_MODULE_OF = {
    name: module
    for module, names in {
        "catalan": (
            "CatalanSet",
            "DEFAULT_CHECK_BOUND",
            "DEFAULT_COUNT_BOUND",
            "HARD_LEVEL_BOUND",
            "LaxMatrix",
            "MOTZKIN",
            "act",
            "catalan_number",
            "enumerate_level",
            "lax_from_bits",
            "level_export",
            "nondegenerate_count",
            "nondegenerate_level",
            "reference_counts",
        ),
        "catalogue": ("NamedSimplex", "named", "verify_catalogue"),
        "classify": (
            "ClassificationReport",
            "MonadStructure",
            "SkewMonoidale",
            "direct_classification",
            "maps_from_catalan",
            "monads",
            "skew_monoidales",
            "verify_monad_remark",
            "verify_theorem",
        ),
        "delta": ("MonotoneMap", "all_maps", "compose", "degeneracy", "face", "identity"),
        "bicats": ("PosetalBicat", "PosetalMonoidalBicat", "embed", "suspend"),
        "inputs": ("load_path", "load_suite", "resolve_input", "suite_names"),
        "models": (
            "IdealRelation",
            "InterpolativeRelation",
            "adjoint_ideals",
            "compose_ideals",
            "enumerate_square_ideals",
            "ideal_leq",
            "ideal_pullback",
            "ideal_to_lax",
            "identity_ideal",
            "lax_to_ideal",
            "lax_to_relation",
            "relation_pullback",
            "relation_to_lax",
        ),
        "nerve": ("BicatNerve", "MonoidalNerve"),
        "posets": ("MonoidalPoset", "validate_monoidal_poset"),
        "sset": (
            "Boundary",
            "TruncatedSimplicialSet",
            "boundary_of",
            "compatible_boundaries",
            "coskeletal_filler_report",
            "enumerate_truncated_maps",
            "fillers",
            "is_compatible_boundary",
        ),
        "tamari": ("dyck_crosscheck", "matrix_to_word", "order_probe"),
    }.items()
    for name in names
}

__all__ = ["catalogue", *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
