"""Cayley sum graphs over finite abelian groups: folded-triangulation cubic
graphs with semiedges, exact character spectra, and crystal lattice families.
"""

from __future__ import annotations

from .abelian import (
    DegenerateLatticeError,
    FiniteAbelianGroup,
    QuotientMap,
    quotient_group,
)
from .caysum import (
    CaySumGraph,
    SumSet,
    cayley_graph,
    cayley_sum_graph,
    graph_from_json,
    graph_to_json,
    semiedge_count,
    sum_set_difference,
    total_semiedge_count,
    translate_sum_set,
)
from .crystal import (
    CrystalSpec,
    crystal_cayley,
    dd_basis,
    diamond_family,
    fullerene_crystal_spec,
    grid_family,
    path_family,
    unmatched_multiset,
)
from .fullerene import (
    CASE_TABLE,
    FaceCensus,
    FoldedGraph,
    FullereneReport,
    InvariantViolation,
    TriangleSpec,
    classify,
    classify_chunk,
    enumerate_specs,
    face_census,
    fold_construction,
    group_and_sumset,
    is_non_obtuse,
    reduce_triangle_basis,
    verify_chunk,
    verify_isomorphism,
    verify_spec,
)
from .intlinalg import IntMatrix, SnfDecomposition, det, is_unimodular, minor_gcd, snf
from .spectra import (
    EIGENSOLVER_TOL,
    MATCH_TOL,
    ConvergenceError,
    SpectrumPartition,
    canonical_unmatched,
    character_spectrum,
    eigenvectors,
    multiset_close,
    numeric_spectrum,
    spectrum_is_paired,
    sum_set_spectra,
    sum_set_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # intlinalg
    "IntMatrix",
    "SnfDecomposition",
    "det",
    "is_unimodular",
    "minor_gcd",
    "snf",
    # abelian
    "DegenerateLatticeError",
    "FiniteAbelianGroup",
    "QuotientMap",
    "quotient_group",
    # caysum
    "CaySumGraph",
    "SumSet",
    "cayley_graph",
    "cayley_sum_graph",
    "graph_from_json",
    "graph_to_json",
    "sum_set_difference",
    "total_semiedge_count",
    "semiedge_count",
    "translate_sum_set",
    # spectra
    "EIGENSOLVER_TOL",
    "MATCH_TOL",
    "ConvergenceError",
    "SpectrumPartition",
    "canonical_unmatched",
    "character_spectrum",
    "eigenvectors",
    "multiset_close",
    "numeric_spectrum",
    "spectrum_is_paired",
    "sum_set_spectrum",
    "sum_set_spectra",
    # fullerene
    "CASE_TABLE",
    "FaceCensus",
    "FoldedGraph",
    "FullereneReport",
    "InvariantViolation",
    "TriangleSpec",
    "classify",
    "classify_chunk",
    "enumerate_specs",
    "face_census",
    "fold_construction",
    "group_and_sumset",
    "is_non_obtuse",
    "reduce_triangle_basis",
    "verify_isomorphism",
    "verify_spec",
    "verify_chunk",
    # crystal
    "CrystalSpec",
    "crystal_cayley",
    "dd_basis",
    "diamond_family",
    "fullerene_crystal_spec",
    "grid_family",
    "path_family",
    "unmatched_multiset",
]
