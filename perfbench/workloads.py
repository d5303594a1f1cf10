"""Seeded input generators for the solve-query benchmark.

Every generator is a pure function of its seed: it draws from its own
`random.Random`, never iterates a set or dict whose order depends on
hashing, and returns texts in the package's graph format. The program
under test therefore receives only the generated texts.

Graphs are grown from the cube by truncation (replace a vertex by a
triangle), which keeps them simple, cubic, planar and triconnected. The
grower carries a clockwise rotation system along, so a text can state
its embedding without asking the program for one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Cube with a clockwise rotation system (edge ids per vertex).
CUBE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0),
              (4, 5), (5, 6), (6, 7), (7, 4),
              (0, 4), (1, 5), (2, 6), (3, 7)]
CUBE_ROTATION = [[0, 8, 3], [0, 1, 9], [1, 2, 10], [2, 3, 11],
                 [7, 8, 4], [4, 9, 5], [5, 10, 6], [11, 7, 6]]


@dataclass
class Query:
    """One solve query: the text plus what the benchmark knows about it."""

    text: str
    n: int
    edges: list
    flex: dict
    external: int | None = None  # face id named by an `external:` line


class Embedded:
    """A cubic plane graph under construction: edges plus rotation."""

    def __init__(self, edges, rotation):
        self.edges = [list(e) for e in edges]
        self.rotation = [list(r) for r in rotation]
        self.newest = (0, 1, 2)

    @property
    def n(self):
        return len(self.rotation)

    def truncate(self, v):
        """Replace v by a triangle v, a, b; v keeps its first edge.

        With rotation (e0, e1, e2) at v, edge e1 moves to corner a and e2
        to corner b; the corners follow the same clockwise order, so the
        rotation stays planar.
        """
        e0, e1, e2 = self.rotation[v]
        a, b = self.n, self.n + 1
        for e, corner in ((e1, a), (e2, b)):
            ends = self.edges[e]
            ends[ends.index(v)] = corner
        t0, t1, t2 = range(len(self.edges), len(self.edges) + 3)
        self.edges += [[v, a], [a, b], [b, v]]
        self.rotation[v] = [e0, t0, t2]
        self.rotation.append([e1, t1, t0])
        self.rotation.append([e2, t2, t1])
        self.newest = (v, a, b)

    def text(self, flex, with_rotation=False, external=None):
        lines = [f"{self.n} {len(self.edges)}"]
        for i, (u, v) in enumerate(self.edges):
            k = flex.get(i, 0)
            lines.append(f"{u} {v} {k}" if k else f"{u} {v}")
        if with_rotation:
            for v, rot in enumerate(self.rotation):
                lines.append(f"rotation {v}: " + " ".join(map(str, rot)))
        if external is not None:
            lines.append(f"external: {external}")
        return "\n".join(lines) + "\n"

    def face_count(self):
        return len(self.edges) - self.n + 2


def grow(rng: random.Random, n: int, p_newest: float) -> Embedded:
    """Truncate the cube until it has n vertices (n even, n >= 8).

    With probability p_newest the truncated vertex is a corner of the
    triangle made last, which nests triangles inside triangles; otherwise
    it is uniform over all vertices.
    """
    g = Embedded(CUBE_EDGES, CUBE_ROTATION)
    while g.n < n:
        if rng.random() < p_newest:
            v = g.newest[rng.randrange(3)]
        else:
            v = rng.randrange(g.n)
        g.truncate(v)
    return g


def random_flex(rng: random.Random, m: int) -> dict:
    """Flex 1-3 on about a quarter of the edges."""
    return {e: rng.randint(1, 3) for e in range(m) if rng.random() < 0.25}


def _edge_list_query(rng, g: Embedded, flexible: bool) -> Query:
    flex = random_flex(rng, len(g.edges)) if flexible else {}
    return Query(g.text(flex), g.n, [tuple(e) for e in g.edges], flex)


def deep_nest(seed: int, count: int = 8, n: int = 800) -> list[Query]:
    """Deeply nested truncation graphs as plain edge lists.

    Every second graph is inflexible, so the referee's exact rule runs at
    full size.
    """
    rng = random.Random(seed)
    return [_edge_list_query(rng, grow(rng, n, 0.9), i % 2 == 1)
            for i in range(count)]


def every_face(seed: int, count: int = 10, n: int = 60) -> list[Query]:
    """Small graphs, each queried once per face, rotation stated in the text.

    Queries are grouped by graph: all faces of one graph come one after
    the other, in face-id order, as a caller exploring one drawing would.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        g = grow(rng, n, 0.5)
        flex = random_flex(rng, len(g.edges)) if i % 2 == 1 else {}
        edges = [tuple(e) for e in g.edges]
        for f in range(g.face_count()):
            out.append(Query(g.text(flex, True, f), g.n, edges, flex, f))
    return out


def sweep(seed: int, sizes) -> list[Query]:
    """One deep-nest graph per size, inflexible, for the log-log slopes."""
    rng = random.Random(seed)
    return [_edge_list_query(rng, grow(rng, n, 0.9), False) for n in sizes]


WORKLOADS = {
    "deep-nest": deep_nest,
    "every-face": every_face,
}
