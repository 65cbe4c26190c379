"""Diagrammatic intertwiner calculus for free unitary quantum groups.

Words over a two-letter alphabet index mixed tensor powers of the fundamental
comodule; pairings of those words span the coinvariant spaces.  The package
enumerates the diagrams, settles span and rank questions exactly by integer
elimination, carries the free fusion semiring, and drives floating-point matrix
models that separate polynomials in the generators from zero.
"""

__version__ = "0.1.0"

from .coinvariants import (
    AmbientSpec,
    FullnessVerdict,
    QuotientSpec,
    RealizationTooLarge,
    gram_matrix,
    gram_matrix_colored,
    invariant_dimension_oracle,
    joint_fullness,
    nc_rank,
    realize_functional,
    verify_witness,
)
from .fusion import FusionVector, dimension, fuse, star_reverse, trivial_multiplicity
from .linalg import ExactMatrix
from .reps import (
    MatrixRep,
    NCPoly,
    RelationReport,
    SeparationStrategy,
    SeparationWitness,
    block_rep,
    check_relations,
    evaluate,
    free_product_rep,
    lift_b_to_a,
    orthogonal_point_rep,
    parse_poly,
    point_rep,
    separate,
)
from .words import (
    Coloring,
    Letter,
    LoopDecomposition,
    Pairing,
    Word,
    balanced_words,
    enumerate_colorings,
    enumerate_noncrossing,
    enumerate_pairings,
    is_block_respecting,
    is_noncrossing,
    loop_decomposition,
    parse_word,
)

__all__ = [
    "__version__",
    "AmbientSpec",
    "FullnessVerdict",
    "QuotientSpec",
    "RealizationTooLarge",
    "gram_matrix",
    "gram_matrix_colored",
    "invariant_dimension_oracle",
    "joint_fullness",
    "nc_rank",
    "realize_functional",
    "verify_witness",
    "FusionVector",
    "dimension",
    "fuse",
    "star_reverse",
    "trivial_multiplicity",
    "ExactMatrix",
    "MatrixRep",
    "NCPoly",
    "RelationReport",
    "SeparationStrategy",
    "SeparationWitness",
    "block_rep",
    "check_relations",
    "evaluate",
    "free_product_rep",
    "lift_b_to_a",
    "orthogonal_point_rep",
    "parse_poly",
    "point_rep",
    "separate",
    "Coloring",
    "Letter",
    "LoopDecomposition",
    "Pairing",
    "Word",
    "balanced_words",
    "enumerate_colorings",
    "enumerate_noncrossing",
    "enumerate_pairings",
    "is_block_respecting",
    "is_noncrossing",
    "loop_decomposition",
    "parse_word",
]
