"""Exact invariants and counting procedures for vertex-weighted trees."""

from .census import CensusReport, fingerprint, run_census
from .embedding import (
    BitCode,
    GoodEmbedding,
    GoodSetReport,
    check_good,
    embedding_isomorphic,
    good_decode,
    good_encode,
)
from .errors import (
    InternalInconsistencyError,
    MalformedEmbeddingError,
    MissingTableEntryError,
    ReconstructionError,
    ResourceBoundError,
    TreeInputError,
)
from .generate import free_trees, random_weighted_tree
from .io import TreeDocument, load_documents, parse_rooted_spec, parse_situation_spec
from .partitions import (
    Expression,
    ExpressionCounts,
    count_partitions,
    count_shaped_partitions,
    is_refinement,
    potts_dichromate,
    q_chromatic,
    q_dichromate,
    u_polynomial,
)
from .shapecount import (
    ExpressionAnalysis,
    ShapeCensus,
    analyze_expression,
    nonshaped_count,
    reconstruct_from_census,
    shape_census,
    shaped_count,
)
from .situations import (
    WHOLE_TREE,
    ContainmentTable,
    Situation,
    build_containment_table,
    enumerate_situations,
    occurrences_by_inclusion_exclusion,
)
from .trees import (
    CanonicalCode,
    ClassTable,
    HangingSubtree,
    RootedWeightedTree,
    SideIndex,
    WeightedTree,
    alpha_vector,
    free_code,
    hanging_subtrees,
    isomorphic,
    render_code,
    rooted_code,
    shapes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
