"""Core layer: covers, good orderings and the Theorem 1 classification."""

from repro.core.classification import (
    ChordalityReport,
    chordality_class,
    classify_bipartite_graph,
    schema_acyclicity_degree,
)
from repro.core.covers import (
    greedy_elimination_cover,
    is_cover,
    is_minimum_cover,
    is_nonredundant_cover,
    is_side_minimum_cover,
    minimum_cover_size,
    minimum_side_cover_size,
    nonredundant_covers,
)
from repro.core.good_ordering import (
    OrderingCase,
    candidate_terminal_sets,
    every_ordering_good_sampled,
    fast_greedy_cover,
    find_bad_terminal_set,
    is_good_ordering,
    sample_orderings_not_good,
    verify_case_exhaustively,
    verify_no_good_ordering,
)

__all__ = [
    "ChordalityReport",
    "OrderingCase",
    "candidate_terminal_sets",
    "chordality_class",
    "classify_bipartite_graph",
    "every_ordering_good_sampled",
    "fast_greedy_cover",
    "find_bad_terminal_set",
    "greedy_elimination_cover",
    "is_cover",
    "is_good_ordering",
    "is_minimum_cover",
    "is_nonredundant_cover",
    "is_side_minimum_cover",
    "minimum_cover_size",
    "minimum_side_cover_size",
    "nonredundant_covers",
    "sample_orderings_not_good",
    "schema_acyclicity_degree",
    "verify_case_exhaustively",
    "verify_no_good_ordering",
]
