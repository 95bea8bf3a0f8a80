"""Order-reversing value vectors on labelled posets: decompositions,
linear-extension statistics, hook-product formulas, complete-intersection
recognition, presentation ideals, truncated Hilbert series, and the flag
complex of connected order ideals.
"""

from .complexes import (
    ForestReport,
    PForest,
    SimplicialComplex,
    delta_complex,
    forest_consistency,
    p_forests,
)
from .errors import (
    ArgError,
    CapError,
    CycleError,
    ExplosionError,
    FlavorError,
    InputError,
    InstabilityError,
    LabelError,
    NotFWDError,
    PPartError,
    PosetSyntaxError,
    RangeError,
    RemainderError,
)
from .extensions import (
    LinearExtension,
    count_extensions,
    linear_extensions,
    maj_polynomial,
)
from .fixtures import fixture
from .partitions import (
    STANDARD,
    STRICT,
    WEAK,
    ConnDecomposition,
    DeltaData,
    classify_map,
    connected_decomposition,
    count_by_size,
    delta_counterexample,
    delta_data,
    enumerate_partitions,
    fundamental_permutation,
    is_standard,
    nested_decomposition,
    nu,
    satisfies,
    stanley_delta_chain,
)
from .poset import (
    PiPair,
    Poset,
    clashes,
    connected_ideals,
    count_ideals,
    enumerate_posets,
    hasse_components,
    induced_occurrences,
    is_ideal,
    is_naturally_labelled,
    iter_ideals,
    lex_min_extension,
    mask_of,
    members,
    natural_relabel,
    nontrivial_pairs,
    parse_poset,
    principal_ideal,
    trivially_intersecting,
)
from .presentation import (
    Presentation,
    SemigroupIdealData,
    SyzGenerator,
    export,
    graded_generators,
    hibi_check,
    initial_generators,
    is_graded_iso,
    presentation_of,
    semigroup_ideal,
    toric_generators,
    verify_vanishing,
)
from .qpoly import QPolynomial, q_factorial, q_int
from .series import (
    TruncSeries,
    duplication_product,
    hilbert_truncated,
    hook_count,
    hook_formula,
    initial_quotient_hilbert,
    koszul_inverse,
    numerator_polynomial,
    rational_sum_truncated,
)
from .structure import (
    BuildRecipe,
    StructureReport,
    Witness,
    ci_test_counts,
    ci_test_ideals,
    classify,
    forbidden_scan,
    lemma41_predictions,
    nearly_principal,
    pi_fiber,
    recipe_poset,
)

__version__ = "0.1.0"
