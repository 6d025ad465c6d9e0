"""The Catalan simplicial set in three presentations, nerves of finite
posetal (monoidal) 2-categories, and brute-force classification checks."""

from .catalan import (
    CatalanSet,
    DEFAULT_CHECK_BOUND,
    DEFAULT_COUNT_BOUND,
    HARD_LEVEL_BOUND,
    LaxMatrix,
    MOTZKIN,
    act,
    catalan_number,
    enumerate_level,
    lax_from_bits,
    level_export,
    nondegenerate_count,
    nondegenerate_level,
    reference_counts,
)
from .catalogue import NamedSimplex, catalogue, named, verify_catalogue
from .classify import (
    ClassificationReport,
    MonadStructure,
    SkewMonoidale,
    direct_classification,
    maps_from_catalan,
    monads,
    skew_monoidales,
    verify_monad_remark,
    verify_theorem,
)
from .delta import MonotoneMap, all_maps, compose, degeneracy, face, identity
from .bicats import PosetalBicat, PosetalMonoidalBicat, embed, suspend
from .inputs import load_path, load_suite, resolve_input, suite_names
from .models import (
    IdealRelation,
    InterpolativeRelation,
    adjoint_ideals,
    compose_ideals,
    enumerate_square_ideals,
    ideal_leq,
    ideal_pullback,
    ideal_to_lax,
    identity_ideal,
    lax_to_ideal,
    lax_to_relation,
    relation_pullback,
    relation_to_lax,
)
from .nerve import BicatNerve, MonoidalNerve
from .posets import MonoidalPoset, validate_monoidal_poset
from .sset import (
    Boundary,
    TruncatedSimplicialSet,
    boundary_of,
    compatible_boundaries,
    coskeletal_filler_report,
    enumerate_truncated_maps,
    fillers,
    is_compatible_boundary,
)
from .tamari import dyck_crosscheck, matrix_to_word, order_probe

__version__ = "0.1.0"
