"""Rectilinear representations of good plane graphs with chosen corners.

A biconnected plane 3-graph is "good" when (i) its external cycle carries
at least four degree-2 vertices, (ii) every 2-extrovert cycle carries at
least two and (iii) every 3-extrovert cycle at least one. Good graphs are
exactly the ones drawable with zero bends (Rahman, Nishizeki and Naznin,
JGAA 2003), and this module produces such a representation once four
degree-2 external vertices are designated as corners. check_good reads
the 2- and 3-extrovert cycles from one call of cycles.extrovert_cycles,
which takes any biconnected plane 3-graph, chains of degree-2 vertices
included, and lists both kinds in one pass; a cycle's k is its number
of legs.

With no bend, a representation is only an angle per corner, so
no_bend_rep solves one feasibility flow over the whole graph: Tamassia's
network (SIAM J. Comput. 1987) with its bend arcs removed. Each vertex v
holds 4 - deg(v) spare quarter turns beyond the 90 every corner takes,
and sends them to the faces at its corners; a corner at 90 (1 + x) turns
its face by 1 - x, so an internal face needs len - 4 spares and the
external face len + 4. A designated corner sends both its spares into
the external face, which makes it 270 there. The spares supplied equal
the spares needed by Euler's formula, so there is a drawing exactly when
the flow carries every spare. Only when it does not does no_bend_rep list
the cycles, to name the condition that fails. networkx, which solves the
flow, is loaded on the first flow, not on import.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import extrovert_cycles
from .errors import NotBiconnected, NotGood
from .graph import PlaneGraph
from .orthorep import OrthoRep, validate


@dataclass(frozen=True)
class GoodCheck:
    """Outcome of the three drawability conditions, first failure wins."""

    ok: bool
    condition: str | None = None  # "i" | "ii" | "iii"
    witness_vertices: tuple = ()
    witness_edges: tuple = ()


@dataclass(frozen=True)
class GoodPlaneGraph:
    plane: PlaneGraph
    corners: tuple

    def __post_init__(self):
        try:
            object.__setattr__(self, "corners", tuple(self.corners))
        except TypeError:
            raise NotGood(f"corners {self.corners!r} are not a sequence") \
                from None
        pg = self.plane
        for v in self.corners:
            if type(v) is not int:
                raise NotGood(f"corner {v!r} is not a vertex id")
        if len(set(self.corners)) != 4:
            raise NotGood(f"need four distinct corners, got {self.corners}")
        ext = _boundary_vertices(pg)
        for v in self.corners:
            if not (0 <= v < pg.n) or pg.graph.degree(v) != 2:
                raise NotGood(f"corner {v} is not a degree-2 vertex")
            if v not in ext:
                raise NotGood(f"corner {v} is not on the external face")


def _boundary_vertices(pg: PlaneGraph) -> set:
    return set(pg.faces[pg.external_face].tails)


def check_good(pg: PlaneGraph) -> GoodCheck:
    """Report the first violated drawability condition, if any. Raises
    NotBiconnected, before testing any condition, when pg has a bridge."""
    cycles = extrovert_cycles(pg)
    outer = pg.faces[pg.external_face]
    outer_vertices = sorted(set(outer.tails))
    deg2_outer = [v for v in outer_vertices if pg.graph.degree(v) == 2]
    if len(deg2_outer) < 4:
        return GoodCheck(
            False, "i",
            tuple(outer_vertices), tuple(sorted(set(outer.edge_ids()))))
    for cyc in sorted(cycles, key=lambda c: (len(c.legs), sorted(c.edges))):
        k = len(cyc.legs)
        if sum(pg.graph.degree(v) == 2 for v in cyc.vertices) < 4 - k:
            return GoodCheck(
                False, "i" * k,  # (ii) for k = 2, (iii) for k = 3
                tuple(sorted(cyc.vertices)), tuple(sorted(cyc.edges)))
    return GoodCheck(True)


def _angles(pg: PlaneGraph, corners) -> dict | None:
    """The angle of every corner of pg, keyed by its arrival dart, in a
    representation with no bend and 270 in the external face at each
    designated corner; None when there is none. The flow network's nodes
    are the vertices, the faces shifted by n, and s and t."""
    import networkx as nx  # loaded on the first flow, not on import

    n, ext = pg.n, pg.external_face
    cset = set(corners)
    net = nx.DiGraph()
    for v in range(n):
        net.add_edge("s", v, capacity=4 - pg.graph.degree(v))
    for f in pg.faces:
        need = len(f) + 4 if f.id == ext else len(f) - 4
        if need < 0:
            return None  # a face with under four corners cannot close
        net.add_edge(n + f.id, "t", capacity=need)
        for d in f.darts:
            v = pg.dart_head(d)
            cap = 3 if v not in cset else 2 if f.id == ext else 0
            net.add_edge(v, n + f.id, capacity=cap)
    value, flow = nx.maximum_flow(net, "s", "t")
    if value != sum(4 - pg.graph.degree(v) for v in range(n)):
        return None
    return {d: 90 * (1 + flow[pg.dart_head(d)][n + f.id])
            for f in pg.faces for d in f.darts}


def no_bend_rep(g: GoodPlaneGraph) -> OrthoRep:
    """Zero-bend representation with 270 at every designated corner.
    Raises NotBiconnected when g has a bridge, and NotGood when it fails a
    drawability condition."""
    pg = g.plane
    for e in range(pg.m):
        f, h = pg.faces_of_edge(e)
        if f == h:
            raise NotBiconnected(f"edge {e} is a bridge")
    angles = _angles(pg, g.corners)
    if angles is None:
        rc = check_good(pg)
        assert not rc.ok, "a good graph found no drawing"
        raise NotGood(
            f"condition ({rc.condition}) fails on "
            f"cycle {list(rc.witness_vertices)}")
    h = OrthoRep(pg, angles)
    validate(h)
    for d in pg.faces[pg.external_face].darts:
        if pg.dart_head(d) in g.corners:
            assert h.angles[d] == 270, \
                f"corner {pg.dart_head(d)} lost its reflex angle"
    return h
