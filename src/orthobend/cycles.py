"""Cycle machinery for plane triconnected cubic graphs, plus the 2- and
3-extrovert cycles and the 2-edge-cuts of any biconnected plane 3-graph.

Everything here revolves around one fact: in a triconnected cubic plane
graph, the three legs of a 3-extrovert or 3-introvert cycle form a
3-edge-cut, and 3-edge-cuts are exactly the 3-cycles of the dual over
three distinct faces. Detection therefore enumerates dual triangles; no
simple-cycle enumeration happens in production code (the brute-force
route lives in the oracle module and is only used to cross-check this
one). One enumerator, _dual_cycles, lists the dual 2- and 3-cycles in
one pass for extrovert_cycles, on a wider class where two faces may
share more than one edge: each face maps its neighbours to the edges
joining them, and each joined pair f < g closes with every face h > g
in the smaller of their two maps, once per choice of joining edges. In
the class of inclusion_tree one edge joins each pair of adjacent faces,
and dual_triangles walks the same maps, each neighbour to its one edge,
in the same order, listing a triangle only when its cut edges share no
vertex.

A record is its cut and its contour, with its inside on the left of the
contour; it keeps no face set. The sides of the separating cuts away from
a root face, on no separating triangle, are laminar, and their tree is
the 4-block tree of the dual triangulation (Kant, 1997); _away_sides
builds it expanding each face once. The sides holding a face are its
owner, the smallest side holding it, and the owner's ancestors in the
cut tree, so one walk up from a face's owner tells each record which
side is its inside.

Each cut face holds two cut edges, at positions i and j of its
boundary, and its boundary between them splits into two arcs, one facing
each side. The cycle bounding a side is the chain of the arcs facing it,
walked with the inside on the left; each contour path is one arc, its
leg the cut edge at its tail and its leg face the arc's face. One walk of
the cut faces chains one side's arcs as spans (f, i, j) of boundary
positions, and the other side's arcs are the same faces in reverse
order, as spans (f, j, i): _cut_walks walks and checks each cut once per
embedding, and _cut_records builds both records of a cut from its
spans. A record holds no dart: it keeps its spans into its graph's
faces, and its darts, edges and vertices are read off them on request.

A dual triangle whose three cut edges share a primal vertex v is facial:
its one degenerate cycle runs round v's face fan. The count reads no
degenerate cycle, so the demanding path never builds one:
inclusion_tree holds records only for the separating triangles, those
whose three cut edges share no vertex. A degenerate cycle is 3-extrovert
when v lies on the external boundary, and extrovert_cycles lists it then.

A separating triangle splits the other faces into two sides. With the
external face in side B, side A is the inside of a 3-extrovert cycle
and A plus the triangle's faces the inside of its 3-introvert partner
with the same legs; with the external face one of the triangle's own
faces, both sides are the insides of two 3-extrovert twins.

Moving the external face never changes which cycles and legs exist, only
which side of each cycle is its inside: the side that does not hold the
external face. So the class check, the separating cuts, their checked
walks and the default root r0, the lowest face on no separating
triangle, are built once per embedding and kept in its PlaneGraph's
tables, which every with_external_face view shares. The tree and the
colors belong to the sides away from a root on no separating triangle,
and a color stays with its path's leg face whichever way the path is
walked. So r0's records, colored on the embedding's first query, are
kept there too, with r0's D and the cuts each face is on, shared by
every query and not changed again. A query at face f touches only what
f changes: the cuts on f's owner chain and those with f as a cut face,
building just the demanding records that f turns 3-extrovert.

Coloring follows the two-step green-counter formulation and reads each
record's own contour paths. A child's path on a leg face is a contiguous
slice of its parent's path on that face, and sibling slices do not
overlap, so a parent path is green exactly when a child path on its leg
face is green. Flexible edges are counted by per-face prefix sums along
the boundaries, so a path's count is a difference across its span and no
dart is walked.

extrovert_cycles serves the no-bend drawing alone, on a wider class: any
biconnected plane 3-graph, chains of degree-2 vertices included, so the
dual may have parallel edges. Each 2- or 3-edge-cut is a dual 2- or
3-cycle over distinct faces, and one pass of _dual_cycles lists both;
the same walk gives the cycle next to each of its sides. A cycle is
extrovert when its side misses the external face: when that face is a
cut face, or when the side is the one _below the cut in a spanning tree
rooted on the external face, so no side is flooded. An extrovert cycle
becomes a CycleRecord built as the 3-cycle records are, with its legs,
leg vertices, leg faces and contour paths; its k is len(legs). The
demanding path never calls it.

two_cuts reads the 2-edge-cuts of a biconnected plane 3-graph off the
dual too. Every edge lies on two faces, and two edges form a cut exactly
when they join the same pair of faces, so each face pair joined by two or
more edges is one cycle of the cactus of 2-edge-cuts (Dinits, Karzanov
and Lomonosov, 1976): the real edges of one S-node of the SPQR tree, in
the order either face's boundary meets them. One pass over face_index
groups them, and the class check names its witness from the first group.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, product
from operator import attrgetter

from .errors import NotBiconnected, NotTriconnectedCubic
# embed is unused here, but the benchmark's tests read it as cycles.embed
from .graph import PlaneGraph, embed


@dataclass(eq=False, slots=True)
class CycleRecord:
    """One cycle with k = 2 or 3 legs, its contour structure and coloring.

    legs[j] is the leg at leg_vertices[j]. contour_paths[j] runs from
    leg_vertices[j] to leg_vertices[(j+1)%k] with the cycle's inside
    region on the left of every dart; leg_faces[j] is the face the two
    bounding legs share along path j. A 3-cycle is degenerate when its
    legs meet in one vertex off it. colors/demanding stay None until a
    coloring pass fills them, after which the record is treated as
    immutable; only 3-cycle records are colored.

    The record holds no dart. Path j is the span spans[j] = (f, i, j') of
    leg face f: the arc of f's boundary strictly between positions i and
    j', walked backwards with every dart reversed when the record is
    extrovert, since its leg faces lie outside it. The spans index
    `faces`, the PlaneGraph's faces, each with its boundary darts, their
    tails and their edge ids. contour_paths, edges, vertices, legs and
    leg_vertices read them on request. The record keeps no face set: its
    inside is the side of its cut on the left of its contour.
    """

    # from 0 when separating; the index in the list extrovert_cycles returns
    cycle_id: int
    kind: str  # "extrovert" | "introvert"
    leg_faces: tuple
    spans: tuple
    degenerate: bool
    faces: list = field(repr=False)  # pg.faces
    # the cycle id of the other record of the same cut: the 3-introvert
    # partner of a 3-extrovert cycle, or its twin when the external face is
    # a cut face; None from extrovert_cycles
    phi_partner: int | None = None
    colors: tuple | None = None
    demanding: bool | None = None

    def _arcs(self, key):
        """Per span, its stretch of the leg face's list `key`, "darts",
        "tails" or "eids", in forward order."""
        faces = self.faces
        return (_between(getattr(faces[f], key), i, j)
                for f, i, j in self.spans)

    @property
    def contour_paths(self):
        arcs = self._arcs("darts")
        if self.kind == "extrovert":  # last dart first, each dart reversed
            return tuple(tuple([d ^ 1 for d in reversed(a)]) for a in arcs)
        return tuple(map(tuple, arcs))

    @property
    def edges(self):
        return frozenset(chain.from_iterable(self._arcs("eids")))

    @property
    def vertices(self):  # the darts' tails, the same set walked either way
        return frozenset(chain.from_iterable(self._arcs("tails")))

    @property
    def legs(self):  # the cut edge at each path's tail
        faces = self.faces
        if self.kind == "extrovert":  # at the end of the arc
            return tuple(faces[f].eids[j] for f, _, j in self.spans)
        return tuple(faces[f].eids[i] for f, i, _ in self.spans)

    @property
    def leg_vertices(self):
        faces = self.faces
        if self.kind == "extrovert":  # the head of the arc's last dart
            return tuple(faces[f].tails[j] for f, _, j in self.spans)
        return tuple(faces[f].tails[(i + 1) % len(faces[f])]
                     for f, i, _ in self.spans)


def _class_index(pg: PlaneGraph):
    """pg.face_index; NotTriconnectedCubic, naming a witness, outside the
    class of inclusion_tree: triconnected cubic graphs. A pass is kept in
    pg.tables; a graph outside is refused again on every query."""
    across = pg.face_index
    if "in_class" in pg.tables:
        return across
    if not pg.graph.is_cubic() or any(f in nbrs or len(set(nbrs)) < len(nbrs)
                                      for f, nbrs in enumerate(across)):
        raise NotTriconnectedCubic(
            "3-cycle records need a triconnected cubic graph: "
            + _class_witness(pg))
    pg.tables["in_class"] = True
    return across


def _class_witness(pg: PlaneGraph):
    """Why pg is outside the class of inclusion_tree: a vertex whose
    degree is not 3, a bridge, which has one face on both sides, or two
    edges joining one pair of faces."""
    for v, darts in enumerate(pg.graph.adj):
        if len(darts) != 3:
            return f"vertex {v} has degree {len(darts)}"
    for f, nbrs in enumerate(pg.face_index):
        if f in nbrs:
            return (f"edge {pg.faces[f].eids[nbrs.index(f)]} has face {f} "
                    "on both sides")
    for (f, g), es in two_cuts(pg).items():
        return f"edges {es[0]} and {es[1]} both join faces {f} and {g}"
    raise AssertionError("no witness outside the class")


def two_cuts(pg: PlaneGraph):
    """The 2-edge-cuts of pg, grouped by the faces they join: per face pair
    (f, g), f < g, joined by two or more edges, those edges in the order
    f's boundary walk meets them. Any two edges of one group form a cut,
    and no other pair does. Raises NotBiconnected on a bridge, an edge
    with one face on both sides."""
    groups = {}
    for f, nbrs in enumerate(pg.face_index):
        for g, e in zip(nbrs, pg.faces[f].eids):
            if g > f:
                groups.setdefault((f, g), []).append(e)
            elif g == f:
                raise NotBiconnected(f"edge {e} is a bridge")
    return {fg: es for fg, es in groups.items() if len(es) >= 2}


def _dual_cycles(pg: PlaneGraph):
    """The 2- and 3-edge-cuts of pg, each once, as (cut_edges, cut_faces):
    the dual 2- and 3-cycles over distinct faces, by their smallest face,
    the faces in increasing order, the 2-cycles over f and g before the
    triangles over them. A 2-cycle over faces (f, g) is two of the edges
    joining them, and a triangle over (f, g, h) is (f|g, g|h, h|f), one
    per choice of the edges joining each pair.

    Each face maps its neighbours to the edges joining them, in increasing
    order, and h ranges over the smaller map of f and g. Raises
    NotBiconnected when an edge has one face on both sides."""
    joins = [{} for _ in pg.faces]  # per face: neighbour -> joining edges
    for e in range(pg.m):
        f, g = pg.faces_of_edge(e)
        if f == g:
            raise NotBiconnected(f"edge {e} is a bridge")
        fg = joins[f].get(g)
        if fg is None:
            joins[f][g] = joins[g][f] = [e]  # one list for both ends
        else:
            fg.append(e)
    found = []
    for f, at_f in enumerate(joins):
        for g, fg in at_f.items():
            if g < f:
                continue
            found += [(cut, (f, g)) for cut in combinations(fg, 2)]
            at_g = joins[g]
            small, big = ((at_f, at_g) if len(at_f) < len(at_g)
                          else (at_g, at_f))
            for h in small:
                if h > g and h in big:
                    tri = (f, g, h)
                    for cut in product(fg, at_g[h], at_f[h]):
                        found.append((cut, tri))
    return found


def dual_triangles(pg: PlaneGraph):
    """The separating 3-edge-cuts of a pg in the class of inclusion_tree
    as (cut_edges, cut_faces), each once, by their smallest face: the dual
    triangles of _dual_cycles whose cut edges l1 (f|g) and l2 (g|h) do not
    meet, in the same order.

    The other dual triangles are facial, one round each vertex: there l1
    and l2 meet at the vertex, as the third edge there joins h|f, and no
    two cut edges of a separating triangle meet. In the class one edge
    joins each pair of adjacent faces, so each face maps its neighbours to
    that edge, and a triangle is tested before it is listed.

    The list does not depend on the external face, so it is built once
    per embedding and kept in pg.tables, which every with_external_face
    view shares; callers must not change it.
    """
    tables = pg.tables
    if "dual_triangles" in tables:
        return tables["dual_triangles"]
    ends, darts = pg.graph.edges, iter(pg.dart_face)
    joins = [{} for _ in pg.faces]  # per face: neighbour -> joining edge
    for e, (f, g) in enumerate(zip(darts, darts)):
        joins[f][g] = joins[g][f] = e
    found = []
    for f, at_f in enumerate(joins):
        for g, l1 in at_f.items():
            if g < f:
                continue
            at_g = joins[g]
            small, big = ((at_f, at_g) if len(at_f) < len(at_g)
                          else (at_g, at_f))
            u, v = ends[l1]
            for h in small:
                if h > g and h in big:
                    l2 = at_g[h]
                    if u not in ends[l2] and v not in ends[l2]:
                        found.append(((l1, l2, at_f[h]), (f, g, h)))
    tables["dual_triangles"] = found
    return found


def _between(seq, i, j):
    """The items of seq strictly after position i and before position j,
    going round cyclically."""
    return seq[i + 1:j] if i < j else seq[i + 1:] + seq[:j]


def _cut_arcs(pg: PlaneGraph, cut, x):
    """The arcs facing the side of x, an end of cut[0], as spans (face, i,
    j) in walk order; None when the walk of the cut faces does not close.

    Each cut face holds two cut edges, at positions i and j of its
    boundary, and the arcs strictly between them face the cut's two
    sides. The arcs facing x's side chain head to tail from the dart of
    cut[0] that ends at x, each walked with its face on the left; the arcs
    facing the other side are _far_arcs of them. The dart tables give each
    cut edge's dart on a face, and its position there.
    """
    face, pos = pg.dart_face, pg.dart_pos
    e = cut[0]
    d = start = 2 * e + (pg.graph.edges[e][0] == x)  # the dart of e to x
    spans = []
    for _ in cut:
        f = face[d]
        for c in cut:
            dc = 2 * c + (face[2 * c] != f)  # c's dart on f, if c is on f
            if c != e and face[dc] == f:
                break
        else:
            raise AssertionError(f"cut face {f} holds one cut edge")
        spans.append((f, pos[d], pos[dc]))
        e, d = c, dc ^ 1
    if d != start:
        return None
    return tuple(spans)


def _far_arcs(spans):
    """The arcs facing the other side of the cut whose arcs facing one
    side are `spans`: the same faces in reverse order, each arc the rest
    of its face's boundary between the same two cut edges."""
    return tuple([(f, j, i) for f, i, j in reversed(spans)])


def _cycle_vertices(pg: PlaneGraph, cut, spans):
    """The vertices of the cycle the arcs `spans` chain, or None unless it
    is one simple cycle with every cut edge a leg: it has at least 3
    vertices, none twice, and each cut edge has one end on it."""
    faces, ends = pg.faces, pg.graph.edges
    walked = []
    for f, i, j in spans:  # _between, inline on this hot path
        t = faces[f].tails
        walked += t[i + 1:j] if i < j else t[i + 1:] + t[:j]
    vertices = set(walked)
    if len(walked) < 3 or len(vertices) < len(walked):
        return None
    for c in cut:
        u, v = ends[c]
        if (u in vertices) == (v in vertices):
            return None
    return vertices


def _record(pg: PlaneGraph, cycle_id, spans, degenerate):
    """The record of the extrovert cycle whose arcs `spans` chain in walk
    order. The cut faces lie outside, so the arcs are walked backwards,
    with the inside on the left. A path's leg is the cut edge at its tail
    and its leg face the arc's face. The path holding the cycle's smallest
    edge comes last. _cut_records builds the records of the separating
    cuts inline."""
    faces = pg.faces
    spans = spans[::-1]
    low = []  # per span, its smallest edge: min(_between(...)), inline
    for f, i, j in spans:
        es = faces[f].eids
        low.append(min(es[i + 1:j]) if i < j else min(es[i + 1:] + es[:j]))
    k = low.index(min(low)) + 1
    spans = spans[k:] + spans[:k]
    return CycleRecord(cycle_id, "extrovert", tuple([f for f, _, _ in spans]),
                       spans, degenerate, faces)


def _cut_walks(pg: PlaneGraph, cuts):
    """Per separating cut c of cuts, dual_triangles(pg), its checked walk:
    walks[2c] the spans of the arcs facing the side of the first end of
    cut[0], walks[2c + 1] those facing the other side. Each side's spans
    are in the order of its 3-extrovert cycle, walked backwards with its
    path holding the smallest dart last.

    One walk of the cut faces gives the arcs facing the first side, and
    the rest of each cut face's boundary faces the other side. Each arc's
    tails give its side's vertices, for the checks that each side closes
    a simple cycle with every cut edge a leg, and its darts its smallest
    dart. None of it depends on the external face, so the walks are built
    and checked once per embedding and kept in pg.tables, flat, two span
    triples per cut.
    """
    tables = pg.tables
    if "cut_walks" in tables:
        return tables["cut_walks"]
    faces, ends = pg.faces, pg.graph.edges
    walks = []
    for cut, _ in cuts:
        near = _cut_arcs(pg, cut, ends[cut[0]][0])
        assert near, "cut faces close no walk"
        walked_a, walked_b, low_a, low_b = [], [], [], []
        for f, j, k in near:  # _between, inline on this hot path
            face = faces[f]
            t, ds = face.tails, face.darts
            if j < k:
                walked_a += t[j + 1:k]
                walked_b += t[k + 1:] + t[:j]
                arc, far = ds[j + 1:k], ds[k + 1:] + ds[:j]
            else:
                walked_a += t[j + 1:] + t[:k]
                walked_b += t[k + 1:j]
                arc, far = ds[j + 1:] + ds[:k], ds[k + 1:j]
            low_a.append(min(arc))
            low_b.append(min(far))
        side_a, side_b = set(walked_a), set(walked_b)
        assert 3 <= len(walked_a) == len(side_a), \
            "side A's arcs close no cycle"
        assert 3 <= len(walked_b) == len(side_b), \
            "side B's arcs close no cycle"
        for c in cut:
            u, v = ends[c]
            assert (u in side_a) != (v in side_a), f"edge {c} is no leg of A"
            assert (u in side_b) != (v in side_b), f"edge {c} is no leg of B"
        low_b.reverse()
        for spans, low in ((near, low_a), (_far_arcs(near), low_b)):
            spans, low = spans[::-1], low[::-1]  # walked backwards
            k = low.index(min(low)) + 1
            walks.append(spans[k:] + spans[:k])
    tables["cut_walks"] = walks
    return walks


def _cut_records(pg: PlaneGraph, walks, i, cut, x, intro_a, intro_b):
    """Records i and i + 1 of a separating cut, cut i // 2 of walks,
    _cut_walks: the cycles round the side of x, an end of cut[0], and
    round the other side, each phi-linked to the other. intro_a and
    intro_b say whether each is 3-introvert, with the cut faces and the
    other side inside it.

    The walks are checked once per embedding and stored from the first
    end of cut[0], so the sides swap when x is the other end. A record
    with the cut faces outside it is 3-extrovert and keeps the stored
    spans; one with them inside is 3-introvert, walked forwards, and its
    first two paths swap, so that the path holding the smallest dart
    still comes last.
    """
    a, b = walks[i], walks[i + 1]
    if x != pg.graph.edges[cut[0]][0]:
        a, b = b, a
    out = []
    for cid, spans, intro in ((i, a, intro_a), (i + 1, b, intro_b)):
        if intro:
            spans = spans[1], spans[0], spans[2]
        (f0, _, _), (f1, _, _), (f2, _, _) = spans
        out.append(CycleRecord(
            cid, "introvert" if intro else "extrovert", (f0, f1, f2), spans,
            False, pg.faces, cid ^ 1))
    return out


def _spanning_tree(pg: PlaneGraph, root):
    """A depth-first spanning tree of pg's graph from vertex root: per
    vertex its preorder number, its subtree's size and the edge to its
    parent (-1 at the root). The stack holds the darts into the vertices
    it has yet to visit, each the tree edge to its head if that is
    unvisited when popped."""
    edges, ends, adj = pg.graph.edges, pg.graph.ends, pg.graph.adj
    pre, up, order = [-1] * pg.n, [-1] * pg.n, [root]
    pre[root] = 0
    stack = adj[root][:]
    while stack:
        d = stack.pop()
        v = ends[d ^ 1]
        if pre[v] < 0:
            pre[v], up[v] = len(order), d >> 1
            order.append(v)
            for d in adj[v]:
                if pre[ends[d ^ 1]] < 0:
                    stack.append(d)
    size = [1] * pg.n
    for v in reversed(order[1:]):
        a, b = edges[up[v]]
        size[a + b - v] += size[v]  # v's parent
    return pre, size, up


def _below(tree, edges, cut, x):
    """Whether vertex x lies under an odd number of the cut's edges in
    tree, a _spanning_tree: whether it is on the side of the cut away from
    the tree's root."""
    pre, size, up = tree
    odd = False
    for e in cut:
        for c in edges[e]:
            if up[c] == e:  # e's end away from the root
                odd ^= pre[c] <= pre[x] < pre[c] + size[c]
    return odd


@dataclass(eq=False, slots=True)
class _Rooting:
    """The cut tree of an embedding's separating cuts rooted at `face`, a
    face on none of them, as _away_sides builds it: per cut the end of
    cut[0] on its side away from face, its parent (-1 at the root) and
    the cuts in preorder; per face its owner, the smallest side holding
    it, or -1. Once demanding_sets has colored at this root, records is
    both records of every cut as the root sees them, colored, and d_set
    the root's D, its demanding 3-extrovert records, in id order."""

    face: int
    away: list
    owner: list
    parent: list
    preorder: list
    records: list | None = None
    d_set: list | None = None


def _held(rooting, f):
    """The cuts whose side away from rooting's face holds face f: f's
    owner and the owner's ancestors, upwards."""
    held, c = [], rooting.owner[f]
    while c >= 0:
        held.append(c)
        c = rooting.parent[c]
    return held


def _away_sides(pg: PlaneGraph, across, cuts, root):
    """The _Rooting of `cuts` at face `root`.

    A side holds the vertices _below its cut in a spanning tree rooted on
    face root, and S such vertices bound (S - 1) / 2 faces. One pass per
    cut lists the tops of the subtrees under its tree edges, and both the
    side's size and the end of cut[0] on it are read off those tops.
    Smallest first, each side floods the faces no smaller side took and
    steps over a finished smaller side, now its child, to that side's cut
    faces, so each face is expanded once and owned by the smallest side
    holding it.
    """
    edges, face = pg.graph.edges, pg.dart_face
    pre, size, up = _spanning_tree(pg, pg.faces[root].tails[0])
    count, away, tops = [], [], []
    for cut, _ in cuts:
        # A vertex is _below the cut when it lies under an odd number of
        # the tops. By inclusion-exclusion over their subtrees, one counts
        # + towards the side's size when its own top is _below, else -.
        tops.clear()
        for e in cut:
            a, b = edges[e]
            if up[a] == e:
                tops.append(a)
            elif up[b] == e:
                tops.append(b)
        s = 0
        for c in tops:
            odd, at = False, pre[c]
            for t in tops:
                odd ^= pre[t] <= at < pre[t] + size[t]
            s += size[c] if odd else -size[c]
        count.append((s - 1) // 2)
        u, v = edges[cut[0]]
        odd, at = False, pre[u]
        for t in tops:
            odd ^= pre[t] <= at < pre[t] + size[t]
        away.append(u if odd else v)

    owner = [-1] * len(across)  # the smallest side holding each face
    parent = [-1] * len(cuts)
    merged = list(range(len(cuts)))  # union-find over the finished sides

    def top(c):
        while merged[c] != c:
            merged[c] = c = merged[merged[c]]
        return c

    for c in sorted(range(len(cuts)), key=count.__getitem__):
        tri = cuts[c][1]
        stack = []
        for e in pg.rotation[away[c]]:
            stack += face[2 * e], face[2 * e + 1]
        took = 0
        while stack:
            f = stack.pop()
            if (o := owner[f]) == c or f in tri:
                continue
            if o < 0:
                owner[f] = c
                took += 1
                stack += across[f]
            elif (t := top(o)) != c:
                merged[t] = parent[t] = c
                took += count[t]
                stack += cuts[t][1]
        assert took == count[c], "a side's flood and Euler count disagree"

    kids = [[] for _ in range(len(cuts) + 1)]  # the last one is the root's
    for c, p in enumerate(parent):
        kids[p].append(c)
    preorder, stack = [], kids.pop()
    while stack:
        c = stack.pop()
        preorder.append(c)
        stack += kids[c]
    return _Rooting(root, away, owner, parent, preorder)


def _reference_face(pg: PlaneGraph, cuts, f0):
    """(reference face, default root) for external face f0: f0 when it is
    on none of `cuts`, the separating triangles dual_triangles(pg) lists,
    else the default root, the lowest face that is on none. The cuts each
    face is on and the default root are kept per embedding in pg.tables."""
    tables = pg.tables
    if "default_root" not in tables:
        at = [()] * len(pg.faces)  # per face, the cuts it is on
        for c, (_, (f, g, h)) in enumerate(cuts):
            at[f] += (c,)
            at[g] += (c,)
            at[h] += (c,)
        assert () in at, "every face lies on a separating triangle"
        tables["default_root"] = at, at.index(())
    at, r0 = tables["default_root"]
    return (r0 if at[f0] else f0), r0


def _flipped(r):
    """Colored record r turned inside out: the same cycle, cycle id,
    colors and demanding flag, the other kind, and its first two paths
    and colors swapped, as _cut_records builds the other kind."""
    (f0, f1, f2), (s0, s1, s2), (x, y, z) = r.leg_faces, r.spans, r.colors
    kind = "introvert" if r.kind == "extrovert" else "extrovert"
    return CycleRecord(r.cycle_id, kind, (f1, f0, f2), (s1, s0, s2), False,
                       r.faces, r.phi_partner, (y, x, z), r.demanding)


def _turned(pg: PlaneGraph):
    """Both colored records of every separating cut as pg's external face
    f sees them, ids as at the default root r0: r0's kept records, those
    that f turns inside out _flipped. f turns both records of each cut on
    its owner chain, and record 2c + 1 of each cut c with f as a cut face,
    the one round side B, 3-introvert at r0."""
    rooting, f = pg.tables["rooting"], pg.external_face
    records, held = rooting.records[:], _held(rooting, f)
    for c in held:
        records[2 * c] = _flipped(records[2 * c])
    for c in held + list(pg.tables["default_root"][0][f]):
        records[2 * c + 1] = _flipped(records[2 * c + 1])
    return records


# ---------------------------------------------------------------------------
# 2- and 3-extrovert cycles of any biconnected plane 3-graph


def extrovert_cycles(pg: PlaneGraph):
    """The 2- and 3-extrovert cycles of pg, as CycleRecords of kind
    "extrovert" with ids 0, 1, ... in the order listed; a cycle's k is
    len(legs).

    pg may be any biconnected plane 3-graph; an edge with one face on both
    sides, a bridge, raises NotBiconnected. Each side of a k-edge-cut, k =
    2 or 3, is bounded by the cycle the cut faces' arcs facing it chain,
    when that is a simple cycle with every cut edge a leg, and the cycle
    is k-extrovert when its side does not hold the external face: when
    the external face is a cut face, or the side is the one _below the cut
    in a spanning tree rooted on the external face. A 3-extrovert cycle is
    degenerate when its legs meet in one vertex off it. A k-extrovert
    cycle's legs are its cut, and each cut is listed once, so no cycle
    comes twice.
    """
    ends = pg.graph.edges
    cuts = _dual_cycles(pg)
    if not cuts:  # no tree then: a lone vertex's one face has no walk
        return []
    ext = pg.external_face
    tree = _spanning_tree(pg, pg.faces[ext].tails[0])
    found = []
    for cut, faces in cuts:
        x = ends[cut[0]][0]
        near = _cut_arcs(pg, cut, x)
        if near is None:
            continue
        if ext in faces:
            sides = near, _far_arcs(near)
        else:
            sides = (near if _below(tree, ends, cut, x)
                     else _far_arcs(near)),
        for spans in sides:
            vertices = _cycle_vertices(pg, cut, spans)
            if vertices is not None:
                far = {v for e in cut for v in ends[e] if v not in vertices}
                found.append(_record(pg, len(found), spans,
                                     len(cut) == 3 and len(far) == 1))
    return found


# ---------------------------------------------------------------------------
# inclusion trees


class InclusionTree:
    """Containment tree over the cycles round the sides of pg's separating
    cuts away from reference_face, as 3-extrovert cycles there.

    The root is the sentinel None standing for the reference face. A
    cycle's parent is the smallest member whose side holds its own, which
    is the cut tree of _away_sides with record 2c of cut c as its node;
    nodes lists the members in preorder, and depth() counts the steps from
    a cycle up to the root. records holds both records of every separating
    cut, seen from pg's own external face, so a node is 3-introvert there
    when that face lies in its side; a record's id is its index there.
    """

    root = None

    def __init__(self, pg, records, rooting):
        self.pg = pg
        self.records = records
        self.reference_face = rooting.face
        self._rooting = rooting
        parent = rooting.parent
        self.nodes = [2 * c for c in rooting.preorder]
        self.parent = {}
        self.children = defaultdict(list)
        self._depth = {None: 0}
        for c in rooting.preorder:
            par = 2 * parent[c] if parent[c] >= 0 else None
            self.parent[2 * c] = par
            self.children[par].append(2 * c)
            self._depth[2 * c] = self._depth[par] + 1

    def depth(self, cid) -> int:
        return self._depth[cid]


def inclusion_tree(pg: PlaneGraph, own=True) -> InclusionTree:
    """The inclusion tree of pg's 3-cycle records, the one way to them:
    both non-degenerate cycles of each separating cut c of dual_triangles,
    ids 2c and 2c + 1, phi-linked, as pg's external face sees them. It is
    rooted at reference_face, pg's external face when that is on no
    separating triangle, else the lowest face on none, the default root
    r0. With own False it is r0's tree, on pg's view at r0, whatever pg's
    face. Raises NotTriconnectedCubic, naming a witness, unless pg's graph
    is cubic and triconnected: unless every edge joins its own pair of
    faces.

    Record 2c is the cycle round the cut's side A away from the reference
    face and 2c + 1 the cycle round the other side B. Each has the side
    that does not hold pg's external face inside: record 2c A, or B and
    the cut faces when the face lies in A; record 2c + 1 B, or A and the
    cut faces when the face lies in B. The rooting at r0 is kept in
    pg.tables; one at another face on no separating triangle is built
    afresh and not kept.
    """
    across = _class_index(pg)
    cuts = dual_triangles(pg)
    walks = _cut_walks(pg, cuts)
    ref, r0 = _reference_face(pg, cuts, pg.external_face)
    if not own:
        pg, ref = pg.with_external_face(r0), r0
    ext = pg.external_face
    rooting = pg.tables.get("rooting")
    if rooting is None or rooting.face != ref:
        rooting = _away_sides(pg, across, cuts, ref)
        if ref == r0:
            pg.tables["rooting"] = rooting
    held = set(_held(rooting, ext))
    records = []
    for c, ((cut, tri), x) in enumerate(zip(cuts, rooting.away)):
        in_a = c in held
        records += _cut_records(pg, walks, 2 * c, cut, x, in_a,
                                not in_a and ext not in tri)
    return InclusionTree(pg, records, rooting)


def fx_counts(tree: InclusionTree):
    """Number of flexible edges on each contour path that has one, keyed
    by (cycle id, path index); a path that is not listed has none.

    Each face's boundary gets prefix sums of its flexible edges, and a
    path's count is the difference across its span; when the graph has
    no flexible edge, no face is summed and no path is listed.
    demanding_sets counts once per embedding, at its first query."""
    flexible = {e for e, k in tree.pg.graph.flex.items() if k > 0}
    if not flexible:
        return {}
    sums = [list(accumulate((e in flexible for e in f.eids), initial=0))
            for f in tree.pg.faces]
    fx = {}
    for r in tree.records:
        for j, (f, i, k) in enumerate(r.spans):
            a = sums[f]  # the flexible edges strictly between i and k
            if count := a[k] - a[i + 1] if i < k else a[-1] - a[i + 1] + a[k]:
                fx[r.cycle_id, j] = count
    return fx


# ---------------------------------------------------------------------------
# coloring


def color_3_extrovert(tree: InclusionTree, fx):
    """Two-step red-green-orange coloring of the tree's nodes, the
    non-degenerate 3-extrovert cycles at its reference face.

    Step 1 marks a path orange when it carries a flexible edge and green
    when a child's path on the same leg face, a slice of it, is already
    green; step 2 turns all-undefined cycles green (these are the
    demanding ones) and the remaining undefined paths red. fx is
    fx_counts(tree).
    """
    green = set()  # (parent id, leg face) of every green path
    for cid in reversed(tree.nodes):
        rec = tree.records[cid]
        cols = []
        for j, f in enumerate(rec.leg_faces):
            if (cid, j) in fx:
                cols.append("orange")
            elif (cid, f) in green:
                cols.append("green")
            else:
                cols.append(None)
        _settle(rec, cols)
        if "green" in rec.colors:
            parent = tree.parent[cid]
            for f, c in zip(rec.leg_faces, rec.colors):
                if c == "green":
                    green.add((parent, f))


def color_3_introvert(tree: InclusionTree, fx):
    """Color the nodes' phi partners, the 3-introvert cycles at the tree's
    reference face, without expanding them.

    The tree's nodes must already be colored by color_3_extrovert. Works
    top-down: for the children C_1..C_k of a node C, the relevant cycle
    set S is the children plus the partner of C itself. A partner path on
    leg face f' is orange exactly when it carries a flexible edge, and it
    contains a green path of another S-cycle exactly when that cycle has a
    green path incident to f'. fx is fx_counts of the tree.
    """
    records = tree.records
    green = [0] * len(tree.pg.faces)  # per face, green S-cycle paths on it
    for node in (tree.root, *tree.nodes):
        kids = tree.children.get(node)
        if not kids:
            continue
        s_cycles = [records[k] for k in kids]
        if node is not None:
            s_cycles.append(records[records[node].phi_partner])
        lit = [r for r in s_cycles if "green" in r.colors]
        for r in lit:
            for f, c in zip(r.leg_faces, r.colors):
                if c == "green":
                    green[f] += 1
        for kid in kids:
            ext = records[kid]
            intro = records[ext.phi_partner]
            cols = []
            for j, f in enumerate(intro.leg_faces):
                if (intro.cycle_id, j) in fx:
                    cols.append("orange")
                # green when another S-cycle than ext has a green path on f
                elif green[f] > (green[f] == 1 and ext.colors[
                        ext.leg_faces.index(f)] == "green"):
                    cols.append("green")
                else:
                    cols.append(None)
            _settle(intro, cols)
        for r in lit:
            for f, c in zip(r.leg_faces, r.colors):
                if c == "green":
                    green[f] -= 1


# the colors _settle gives each triple of step-1 colors, one shared tuple
# per triple, so records hold no tuple of their own
_SETTLED = {cols: tuple([c or "red" for c in cols]) if any(cols)
            else ("green",) * 3
            for cols in product((None, "green", "orange"), repeat=3)}


def _settle(rec, cols):
    """Step 2 of the coloring: a record whose paths are all undefined is
    demanding and all green, and its other undefined paths turn red."""
    rec.demanding = not any(cols)
    rec.colors = _SETTLED[tuple(cols)]


# ---------------------------------------------------------------------------
# demanding sets for an arbitrary external face


@dataclass
class DemandingSets:
    d_set: list  # pairwise non-intersecting demanding 3-extrovert cycles
    d_f: list  # members of d_set with the external face as a leg face
    reference_face: int  # the default root
    pg: PlaneGraph = field(repr=False)  # the query's embedding

    @property
    def records(self):  # built on request: no query builds them all
        return _turned(self.pg)


def demanding_sets(pg: PlaneGraph) -> DemandingSets:
    """D(G) and D_f(G) for pg's own embedding, each in id order.

    A cycle keeps its coloring in every embedding where it stays
    3-extrovert, and a 3-introvert cycle takes the coloring of the same
    cycle as 3-extrovert in any embedding that turns it inside out. So
    the embedding's first query builds and colors the records at the
    default root r0 and keeps them with r0's D, and every query, the
    first too, reads them at its own external face f. Demanding cycles
    that were 3-introvert at r0, the nodes' partners, and share f as a
    leg face pairwise intersect, and drop out of D(G) when there are two
    or more of them.

    A query touches only what f changes: the cuts on f's owner chain and
    those with f as a cut face. D(f) is r0's D less the chain's records,
    plus the demanding records f turns 3-extrovert, less the dropped
    ones; only those are built, _flipped from r0's. Each query checks the
    class and lists the cuts once.
    """
    tables = pg.tables
    rooting = tables.get("rooting")
    if rooting is None or rooting.records is None:
        tree = inclusion_tree(pg, own=False)
        fx = fx_counts(tree)
        color_3_extrovert(tree, fx)
        color_3_introvert(tree, fx)
        rooting, records = tree._rooting, tree.records
        rooting.d_set = [r for r in records[::2] if r.demanding]
        rooting.records = records
    else:
        _class_index(pg)
        dual_triangles(pg)
    f, kept = pg.external_face, rooting.records
    held = _held(rooting, f)
    at = tables["default_root"][0][f]
    i_f = [c for c in at if kept[2 * c + 1].demanding]
    turned = {c: _flipped(kept[2 * c + 1])
              for c in (held + i_f if len(i_f) < 2 else held)
              if kept[2 * c + 1].demanding}
    gone = set(held)
    d_set = [r for r in rooting.d_set if r.cycle_id >> 1 not in gone]
    if turned:
        d_set += turned.values()
        d_set.sort(key=attrgetter("cycle_id"))
    d_f = [r for c in at for r in (kept[2 * c], turned.get(c))
           if r is not None and r.demanding]
    return DemandingSets(d_set, d_f, rooting.face, pg)
