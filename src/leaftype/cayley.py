"""Breadth-first Cayley balls of the deck group, with DOT and JSON export.

The deck group is the image of the representation. Vertices are group
elements, the root is the identity, and the ball of radius N holds every
element expressible as the image of a word of length at most N in the
canonical generators (c_n excluded, since the relation determines it).
Edges are (v, gen, v * image(gen)); loops appear when a generator image
fixes a vertex, in particular for trivial images. Canonical key strings
and edges are built only for export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from .targets import DEFAULT_VERTEX_BUDGET, BudgetExceededError, Element, Representation, enumerate_group


@dataclass
class CayleyBall:
    """distances maps each vertex element (not its key) to its word length, in BFS order."""

    radius: int
    distances: Dict[Element, int]
    representation: Representation = field(repr=False)

    @property
    def root(self) -> Element:
        return next(iter(self.distances))

    @property
    def vertex_count(self) -> int:
        return len(self.distances)

    @cached_property
    def keys(self) -> Dict[Element, str]:
        """The canonical key string of each vertex, built once on first export."""
        return {v: v.key() for v in self.distances}

    def sorted_vertices(self) -> List[Tuple[str, int]]:
        keys = self.keys
        return sorted((keys[v], d) for v, d in self.distances.items())

    @cached_property
    def edges(self) -> List[Tuple[str, str, str]]:
        """(source key, generator id, target key), sorted; built on first export."""
        rep, keys = self.representation, self.keys
        gens = [(name, rep.image(name)) for name in rep.presentation.free_gens]
        edges = []
        for v, k in keys.items():
            for name, el in gens:
                w = v if el.is_identity else v.compose(el)
                if w in keys:
                    edges.append((k, name, keys[w]))
        edges.sort()
        return edges

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "root": self.keys[self.root],
            "vertices": [
                {"key": k, "distance": d} for k, d in self.sorted_vertices()
            ],
            "edges": [list(e) for e in self.edges],
        }


def build_ball(
    rep: Representation, radius: int, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> CayleyBall:
    """BFS ball of the deck group in the word metric of the canonical generators."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    gens = [rep.image(name) for name in rep.presentation.free_gens]
    distances = enumerate_group(rep.identity(), gens, vertex_budget, radius)
    if distances is None:
        raise BudgetExceededError("Cayley ball vertex count", vertex_budget)
    return CayleyBall(radius, distances, rep)


def export_dot(ball: CayleyBall) -> str:
    """DOT text with vertices labeled by distance, edges by generator.

    Node ids follow the lexicographic order of the canonical element keys,
    so output is byte-reproducible for a fixed ball.
    """
    order = {k: i for i, (k, _) in enumerate(ball.sorted_vertices())}
    lines = ["digraph cayley_ball {"]
    for k, dist in ball.sorted_vertices():
        lines.append('  "v%d" [label="%d"]; // %s' % (order[k], dist, k))
    for src, gen, dst in ball.edges:
        lines.append('  "v%d" -> "v%d" [label="%s"];' % (order[src], order[dst], gen))
    lines.append("}")
    return "\n".join(lines) + "\n"
