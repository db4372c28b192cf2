"""Chordal graph recognition.

A graph is *chordal* (the paper's (4,1)-chordal: every cycle with at least
four vertices has a chord) iff it admits a perfect elimination ordering.
Three recognition strategies are provided and cross-validated in the
test-suite:

* ``"mcs"``      -- maximum cardinality search + PEO check (default);
* ``"lexbfs"``   -- lexicographic BFS + PEO check;
* ``"greedy"``   -- repeated deletion of simplicial vertices (reference);
* ``"cycles"``   -- the definitional check by cycle enumeration (only for
  small graphs; exponential).
"""

from __future__ import annotations

from typing import List, Optional

from repro.chordality.lexbfs import lexbfs_elimination_ordering
from repro.chordality.mcs import mcs_elimination_ordering
from repro.chordality.peo import (
    greedy_simplicial_elimination,
    is_perfect_elimination_ordering,
)
from repro.graphs.cycles import find_cycle_with_few_chords
from repro.graphs.graph import Graph, Vertex


def is_chordal(graph: Graph, method: str = "mcs") -> bool:
    """Return ``True`` when ``graph`` is chordal ((4,1)-chordal).

    See the module docstring for the available ``method`` values.
    """
    if graph.number_of_vertices() == 0:
        return True
    if method == "mcs":
        ordering = mcs_elimination_ordering(graph)
        return is_perfect_elimination_ordering(graph, ordering)
    if method == "lexbfs":
        ordering = lexbfs_elimination_ordering(graph)
        return is_perfect_elimination_ordering(graph, ordering)
    if method == "greedy":
        return greedy_simplicial_elimination(graph) is not None
    if method == "cycles":
        return find_cycle_with_few_chords(graph, min_length=4, max_chords=0) is None
    raise ValueError(f"unknown chordality method {method!r}")


def perfect_elimination_ordering(
    graph: Graph, method: str = "mcs"
) -> Optional[List[Vertex]]:
    """Return a perfect elimination ordering, or ``None`` for non-chordal graphs."""
    if graph.number_of_vertices() == 0:
        return []
    if method == "mcs":
        ordering = mcs_elimination_ordering(graph)
    elif method == "lexbfs":
        ordering = lexbfs_elimination_ordering(graph)
    elif method == "greedy":
        greedy = greedy_simplicial_elimination(graph)
        return greedy
    else:
        raise ValueError(f"unknown chordality method {method!r}")
    if is_perfect_elimination_ordering(graph, ordering):
        return ordering
    return None
