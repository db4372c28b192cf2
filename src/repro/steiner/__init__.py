"""Steiner and pseudo-Steiner solvers, baselines and reduction gadgets."""

from repro.steiner.algorithm1 import lemma1_ordering, pseudo_steiner_algorithm1
from repro.steiner.algorithm2 import nonredundant_cover_tree, steiner_algorithm2
from repro.steiner.exact import steiner_tree_bruteforce, steiner_tree_dreyfus_wagner
from repro.steiner.heuristics import kou_markowsky_berman, shortest_path_heuristic
from repro.steiner.problem import (
    SteinerInstance,
    SteinerSolution,
    prune_non_terminal_leaves,
)
from repro.steiner.pseudo import pseudo_steiner_bruteforce
from repro.steiner.reductions import (
    SteinerReduction,
    UNIVERSAL_VERTEX,
    X3CInstance,
    chordal_steiner_to_pseudo_steiner,
    exact_cover_from_tree,
    random_x3c_instance,
    steiner_decision_answers_x3c,
    x3c_to_steiner,
)

__all__ = [
    "SteinerInstance",
    "SteinerReduction",
    "SteinerSolution",
    "UNIVERSAL_VERTEX",
    "X3CInstance",
    "chordal_steiner_to_pseudo_steiner",
    "exact_cover_from_tree",
    "kou_markowsky_berman",
    "lemma1_ordering",
    "nonredundant_cover_tree",
    "prune_non_terminal_leaves",
    "pseudo_steiner_algorithm1",
    "pseudo_steiner_bruteforce",
    "random_x3c_instance",
    "shortest_path_heuristic",
    "steiner_algorithm2",
    "steiner_decision_answers_x3c",
    "steiner_tree_bruteforce",
    "steiner_tree_dreyfus_wagner",
    "x3c_to_steiner",
]
