"""Cycle machinery for plane triconnected cubic graphs, plus the 2- and
3-extrovert cycles of any biconnected plane 3-graph.

Everything here revolves around one fact: in a triconnected cubic plane
graph, the three legs of a 3-extrovert or 3-introvert cycle form a
3-edge-cut, and 3-edge-cuts are exactly the 3-cycles of the dual over
three distinct faces. Detection therefore enumerates dual triangles; no
simple-cycle enumeration happens in production code (the brute-force
route lives in the oracle module and is only used to cross-check this
one). One enumerator, _dual_cycles, lists the dual 2- and 3-cycles for
both layers: it groups the edges by the pair of faces they join, and
closes each joined pair f < g with every face h > g joined to both.

A record is its cut plus the faces on its inside. The sides of the
separating cuts are laminar, so one numbering of the faces makes the side
of every cut away from a root face, on no separating triangle, a single
interval; their tree is the 4-block tree of the dual triangulation (Kant,
1997). A spanning tree of the graph gives each such side's size and the
end of cut[0] on it without a flood: the vertices under an odd number of
the cut's tree edges lie on that side, and a cubic side with S vertices
bounds (S - 1) / 2 faces. Taken from the smallest up, each side floods
only the faces no smaller side took, stepping over a finished smaller
side to its cut faces, so each face is expanded once; numbering the faces
by a depth-first walk of the resulting cut tree, each side's own faces
first, makes every side an interval. An inside is that interval or its
complement, with the cut's faces in or out, so membership and size are
O(1).

Each cut face holds two cut edges, and its boundary between them splits
into two arcs, one facing each side. The cycle bounding a side is the
chain of the arcs facing it, walked with the inside on the left; each
contour path is one arc, its leg the cut edge at its tail and its leg
face the arc's face. A record holds no dart: it keeps each arc as a span
(face, i, j) of boundary positions, plus one flag for a chain walked
backwards, into per-face tables of darts, tails and edge ids built once
per call. The checks that the arcs close a simple cycle run on the tails
when the record is built; the darts, edges and vertices are read off the
tables on request.

A dual triangle whose three cut edges share a primal vertex v is facial:
its one degenerate cycle runs round v's face fan, 3-extrovert with every
face but the fan inside when v lies on the external boundary, and
3-introvert with the fan inside when v is internal. The count reads no
degenerate cycle, so the demanding path never builds one:
three_cycle_records lists only the separating triangles, those whose
three cut edges share no vertex, and facial_records builds the
degenerate cycles on request.

A separating triangle splits the other faces into two sides. With the
external face in side B, side A is the inside of a 3-extrovert cycle
and A plus the triangle's faces the inside of its 3-introvert partner
with the same legs; with the external face one of the triangle's own
faces, both sides are the insides of two 3-extrovert twins.

Moving the external face never changes which cycles and legs exist, only
which side of each cycle is its inside: the side that does not hold the
external face. So each query checks its graph's class, picks a reference
face on no separating triangle and numbers the faces once, rooted at that
face, without a copy of the embedding; then it builds each record once,
as the query's own external face sees it. The inclusion tree and the
colors belong to the cut sides away from the reference face: a tree node
is the cycle round such a side, 3-extrovert at the reference face, and
is 3-introvert at the query's face when that face lies in its side. A
color stays with its path's leg face, whichever way the path is walked.

Coloring follows the two-step green-counter formulation and reads each
record's own contour paths. A child's path on a leg face is a contiguous
slice of its parent's path on that face, and sibling slices do not
overlap, so a parent path is green exactly when a child path on its leg
face is green. Flexible edges are counted by per-face prefix sums along
the boundaries, so a path's count is a difference across its span and no
dart is walked.

extrovert_cycles serves the no-bend drawing alone, on a wider class: any
biconnected plane 3-graph, chains of degree-2 vertices included, so the
dual may have parallel edges. Each k-edge-cut, k = 2 or 3, is a dual
k-cycle over k distinct faces; the same arcs give the cycle next to each
of its sides as a CycleRecord built as the 3-cycle records are, with its
legs, leg vertices, leg faces and contour paths, and a dual flood that
never enters a cut face gives that cycle's inside as a frozenset. It
costs O(faces) per cut, so it is not linear, and the demanding path
never calls it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, product

from .errors import (
    NoTwin, NotBiconnected, NotTriconnectedCubic, ShortExternalFace,
)
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
    j', walked backwards with every dart reversed when `reverse`. The
    spans index `tables`, per-face lists of boundary darts, their tails
    and their edge ids that all records of one call share, and
    contour_paths, edges, vertices and leg_vertices read them on request.
    """

    # from 0 when separating; -1 - v round vertex v; the index in the list
    # extrovert_cycles returns
    cycle_id: int
    kind: str  # "extrovert" | "introvert"
    legs: tuple
    leg_faces: tuple
    spans: tuple
    reverse: bool
    # an Inside for the 3-cycle records, a frozenset from extrovert_cycles
    inside_faces: Inside | frozenset
    degenerate: bool
    tables: tuple = field(repr=False)  # (darts, tails, edge ids) per face
    # the cycle id of the other record of the same cut: the 3-introvert
    # partner of a 3-extrovert cycle, or its twin when the external face is
    # a cut face; None round a vertex
    phi_partner: int | None = None
    colors: tuple | None = None
    demanding: bool | None = None

    def _arcs(self, k):
        """Per span, its stretch of face table k: 0 darts, 1 tails, 2 edge
        ids, in forward order."""
        table = self.tables[k]
        return (_between(table[f], i, j) for f, i, j in self.spans)

    @property
    def contour_paths(self):
        if not self.reverse:
            return tuple(map(tuple, self._arcs(0)))
        return tuple(tuple((e, 1 - o) for e, o in reversed(arc))
                     for arc in self._arcs(0))

    @property
    def edges(self):
        return frozenset(chain.from_iterable(self._arcs(2)))

    @property
    def vertices(self):  # the darts' tails, the same set walked either way
        return frozenset(chain.from_iterable(self._arcs(1)))

    @property
    def leg_vertices(self):
        tails = self.tables[1]
        if self.reverse:  # the head of the arc's last dart
            return tuple(tails[f][j] for f, _, j in self.spans)
        return tuple(tails[f][(i + 1) % len(tails[f])]
                     for f, i, _ in self.spans)


class Inside:
    """The inside faces of a record in O(1) space: `in` and len are O(1).

    numbering is (order, at), a face numbering shared by the records of
    one call and its inverse, in which faces lo..hi-1 are one side of the
    cut with faces `tri`. The inside is that side, or with `out` every face
    outside it and `tri`, plus `tri` exactly when `cut_faces`.
    """

    __slots__ = ("numbering", "lo", "hi", "tri", "out", "cut_faces")

    def __init__(self, numbering, lo, hi, tri, out, cut_faces):
        self.numbering = numbering
        self.lo, self.hi, self.tri = lo, hi, tri
        self.out, self.cut_faces = out, cut_faces

    def __contains__(self, f):
        if f in self.tri:
            return self.cut_faces
        return (self.lo <= self.numbering[1][f] < self.hi) != self.out

    def __len__(self):
        k = self.hi - self.lo
        if self.out:
            k = len(self.numbering[0]) - len(self.tri) - k
        return k + len(self.tri) * self.cut_faces

    def __iter__(self):  # O(faces), for checks
        return (f for f in self.numbering[0] if f in self)


def _class_index(pg: PlaneGraph):
    """pg.face_index; NotTriconnectedCubic outside the class of
    three_cycle_records."""
    across, pos = pg.face_index
    if not pg.graph.is_cubic() or any(f in nbrs or len(set(nbrs)) < len(nbrs)
                                      for f, nbrs in enumerate(across)):
        raise NotTriconnectedCubic(
            "3-cycle records need a triconnected cubic graph")
    return across, pos


def _dual_cycles(pg: PlaneGraph, k):
    """The k-edge-cuts of pg, k = 2 or 3, each once, as (cut_edges,
    cut_faces): the dual k-cycles over k distinct faces, the faces in
    increasing order. A triangle over faces (f, g, h) is (f|g, g|h, h|f).
    Raises NotBiconnected when an edge has one face on both sides."""
    joins = defaultdict(list)  # (f, g), f < g -> the edges joining them
    above = defaultdict(set)  # f -> the faces g > f that an edge joins it to
    for e in range(pg.m):
        f, g = sorted(pg.faces_of_edge(e))
        if f == g:
            raise NotBiconnected(f"edge {e} is a bridge")
        joins[f, g].append(e)
        above[f].add(g)
    if k == 2:
        return [(cut, fg) for fg, es in joins.items()
                for cut in combinations(es, 2)]
    return [(cut, (f, g, h)) for (f, g), es in joins.items()
            for h in above[f] & above[g]
            for cut in product(es, joins[g, h], joins[f, h])]


def dual_triangles(pg: PlaneGraph):
    """The separating 3-edge-cuts of a pg in the class of
    three_cycle_records as (cut_edges, cut_faces), each once.

    cut_faces = (f, g, h) with f < g < h, and cut_edges = (l1, l2, l3)
    where l1 joins f|g, l2 joins g|h and l3 joins h|f in the dual. They
    are the dual triangles of _dual_cycles whose cut edges share no
    vertex; the others are facial, one round each vertex, and not listed.
    """
    ends = pg.graph.edges
    return [(cut, faces) for cut, faces in _dual_cycles(pg, 3)
            if len({v for e in cut for v in ends[e]}) == 6]


def _between(seq, i, j):
    """The items of seq strictly after position i and before position j,
    going round cyclically."""
    return seq[i + 1:j] if i < j else seq[i + 1:] + seq[:j]


def _face_tables(pg: PlaneGraph):
    """The tables a record's spans index: per face, its boundary darts,
    their tails and their edge ids."""
    ends = pg.graph.edges
    darts = [f.boundary for f in pg.faces]
    return (darts, [[ends[e][o] for e, o in b] for b in darts],
            [[e for e, _ in b] for b in darts])


def _contour(pg: PlaneGraph, tables, cut, x, reverse):
    """The cycle next to the cut on the side of x, an end of cut[0], as
    (spans, legs, vertex set); None unless the spans close one simple
    cycle with every cut edge a leg.

    Each cut face holds two cut edges, and its boundary between them
    splits into two arcs, one facing each side. The arcs facing x's side
    chain head to tail from the dart of cut[0] that ends at x, each walked
    with its face on the left, a span (face, i, j) of the positions
    strictly between the two cut edges; when the cut faces lie outside
    the cycle, `reverse`, the chain is walked backwards, so the inside is
    always on the left. A path's leg is the cut edge at its tail and its
    leg face the arc's face. The path holding the cycle's smallest edge
    comes last.
    """
    darts, tails, eids = tables
    pos = pg.face_index[1]
    e = cut[0]
    f = pg.faces_of_edge(e)[pg.edge(e)[0] == x]  # that of the dart to x
    spans = []
    for _ in cut:
        at = pos[f]
        i = at[e]
        j = next(at[c] for c in cut if c != e and c in at)
        spans.append((f, i, j))
        e, o = darts[f][j]
        f = pg.faces_of_edge(e)[1 - o]  # the face of the reversed dart
    if (e, f) != (cut[0], spans[0][0]):
        return None
    walked = []
    for f, i, j in spans:
        walked += _between(tails[f], i, j)
    vertices = set(walked)
    if len(walked) < 3 or len(vertices) < len(walked) or any(
            (u in vertices) == (v in vertices) for u, v in map(pg.edge, cut)):
        return None
    if reverse:
        spans.reverse()
    low = [min(_between(eids[f], i, j)) for f, i, j in spans]
    k = low.index(min(low)) + 1
    spans = spans[k:] + spans[:k]
    legs = tuple(eids[f][j] if reverse else eids[f][i] for f, i, j in spans)
    return tuple(spans), legs, vertices


def _record(pg, tables, cycle_id, cut, inside, x, degenerate, phi=None):
    """The record of the cycle next to the cut on the side of x, an end of
    cut[0], whose inside is `inside`: 3-introvert exactly when the legs,
    and so the cut faces, lie inside."""
    reverse = not inside.cut_faces
    contour = _contour(pg, tables, cut, x, reverse)
    assert contour is not None, "cut arcs close no cycle with three legs"
    return _cycle_record(
        tables, cycle_id, "extrovert" if reverse else "introvert",
        contour, reverse, inside, degenerate, phi)


def _cycle_record(tables, cycle_id, kind, contour, reverse, inside,
                  degenerate, phi=None):
    """The CycleRecord of the cycle whose contour _contour returned."""
    spans, legs, _ = contour
    return CycleRecord(
        cycle_id=cycle_id, kind=kind, legs=legs,
        leg_faces=tuple(f for f, _, _ in spans), spans=spans,
        reverse=reverse, inside_faces=inside, degenerate=degenerate,
        tables=tables, phi_partner=phi)


def _spanning_tree(pg: PlaneGraph, root):
    """A depth-first spanning tree of pg's graph from vertex root: per
    vertex its preorder number, its subtree's size and the edge to its
    parent (-1 at the root)."""
    edges, adj = pg.graph.edges, pg.graph.adj
    pre, up, order = [-1] * pg.n, [-1] * pg.n, []
    stack = [(root, -1)]
    while stack:
        v, e = stack.pop()
        if pre[v] < 0:
            pre[v], up[v] = len(order), e
            order.append(v)
            stack.extend((w, d) for w, d in adj[v] if pre[w] < 0)
    size = [1] * pg.n
    for v in reversed(order[1:]):
        a, b = edges[up[v]]
        size[a if b == v else b] += size[v]
    return pre, size, up


def _away_sides(pg: PlaneGraph, across, cuts, root):
    """A face numbering (order, at); per cut of `cuts`, the interval
    (lo, hi) of its side away from face `root`, on no cut, in that
    numbering, with the end of cut[0] on that side; and the cut tree, as
    each cut's parent (-1 at the root) and the cuts in preorder.

    A side holds the vertices under an odd number of its cut's tree edges,
    and S such vertices bound (S - 1) / 2 faces. Smallest first, each side
    floods the faces no smaller side took and steps over a finished
    smaller side, now its child, to that side's cut faces, so each face is
    expanded once. A depth-first walk of the cut tree, each side's own
    faces first, numbers every side as one interval.
    """
    pre, size, up = _spanning_tree(
        pg, pg.dart_tail(pg.faces[root].boundary[0]))

    def under(c, v):  # v lies in the subtree of c
        return pre[c] <= pre[v] < pre[c] + size[c]

    count, ends = [], []
    for cut, _ in cuts:
        kids = [v for e in cut for v in pg.edge(e) if up[v] == e]
        s = sum(size[c] * (-1) ** sum(under(d, c) for d in kids if d != c)
                for c in kids)
        u, v = pg.edge(cut[0])
        count.append((s - 1) // 2)
        ends.append(u if sum(under(c, u) for c in kids) % 2 else v)

    owner = [-1] * len(across)  # the smallest side holding each face
    parent = [-1] * len(cuts)
    merged = list(range(len(cuts)))  # union-find over the finished sides

    def top(c):
        while merged[c] != c:
            merged[c] = c = merged[merged[c]]
        return c

    for c in sorted(range(len(cuts)), key=count.__getitem__):
        tri = cuts[c][1]
        stack = [f for e in pg.rotation[ends[c]] for f in pg.faces_of_edge(e)]
        took = 0
        while stack:
            f = stack.pop()
            if f in tri:
                continue
            if owner[f] < 0:
                owner[f] = c
                took += 1
                stack.extend(across[f])
            elif (t := top(owner[f])) != c:
                merged[t] = parent[t] = c
                took += count[t]
                stack.extend(cuts[t][1])
        assert took == count[c], "a side's flood and Euler count disagree"

    own = [[] for _ in range(len(cuts) + 1)]  # the last one is the root's
    kids = [[] for _ in range(len(cuts) + 1)]
    for f, c in enumerate(owner):
        own[c].append(f)
    for c, p in enumerate(parent):
        kids[p].append(c)
    order, lo, walk, stack = [], [0] * (len(cuts) + 1), [], [-1]
    while stack:
        c = stack.pop()
        walk.append(c)
        lo[c] = len(order)
        order += own[c]
        stack += kids[c]
    at = [0] * len(order)
    for i, f in enumerate(order):
        at[f] = i
    return ((order, at), [(lo[c], lo[c] + count[c], ends[c])
                          for c in range(len(cuts))], parent, walk[1:])


def _root_records(pg: PlaneGraph):
    """(records, parent, preorder, reference_face): both records of every
    separating cut c of pg, ids 2c and 2c + 1, as pg's external face sees
    them, with the cut tree of _away_sides rooted at the reference face
    compute_reference_embedding picks.

    Record 2c is the cycle round the cut's side A away from the reference
    face and 2c + 1 the cycle round the other side B. Each has the side
    that does not hold pg's external face inside: record 2c A, or B and
    the cut faces when the face lies in A; record 2c + 1 B, or A and the
    cut faces when the face lies in B. Raises NotTriconnectedCubic as
    three_cycle_records does.
    """
    across, _ = _class_index(pg)
    cuts = dual_triangles(pg)
    ext = pg.external_face
    ref = _reference_face(cuts, pg.faces, ext)
    numbering, sides, parent, preorder = _away_sides(pg, across, cuts, ref)
    tables = _face_tables(pg)
    records = []
    for (cut, tri), (lo, hi, x) in zip(cuts, sides):
        u, v = pg.edge(cut[0])
        y = v if x == u else u  # the end of cut[0] on the root's side
        in_a = ext in Inside(numbering, lo, hi, tri, False, False)
        in_b = not in_a and ext not in tri
        i = len(records)
        records.append(_record(pg, tables, i, cut,
                               Inside(numbering, lo, hi, tri, in_a, in_a),
                               x, False, i + 1))
        records.append(_record(pg, tables, i + 1, cut,
                               Inside(numbering, lo, hi, tri, not in_b, in_b),
                               y, False, i))
    return records, parent, preorder, ref


def three_cycle_records(pg: PlaneGraph):
    """The non-degenerate 3-extrovert and 3-introvert cycles of pg, two
    per separating 3-edge-cut, each phi-linked to the other record of its
    cut; facial_records has the degenerate ones.

    They are the records of _root_records, ids 2c and 2c + 1 per cut c of
    dual_triangles. Raises NotTriconnectedCubic unless pg's graph is cubic
    and triconnected, that is, unless every edge joins its own pair of
    faces: the dual has no loop and no parallel edges.
    """
    return _root_records(pg)[0]


def facial_records(pg: PlaneGraph):
    """The degenerate 3-cycles of pg, one per vertex v with cycle id
    -1 - v: the cycle round v's face fan, whose legs are v's three edges.

    The cycle is 3-extrovert, with every face but the fan inside, when v
    lies on the external face, and 3-introvert with the fan inside when v
    is internal. Raises NotTriconnectedCubic as three_cycle_records does.
    """
    _class_index(pg)
    tables = _face_tables(pg)
    ext = pg.external_face
    faces = range(len(pg.faces))
    records = []
    for v, cut in enumerate(pg.rotation):
        fan = frozenset(f for e in cut for f in pg.faces_of_edge(e))
        outer = ext in fan
        u, w = pg.edge(cut[0])
        records.append(_record(
            pg, tables, -1 - v, tuple(cut),
            Inside((faces, faces), 0, 0, fan, outer, not outer),
            w if u == v else u, True))
    return records


# ---------------------------------------------------------------------------
# 2- and 3-extrovert cycles of any biconnected plane 3-graph


def extrovert_cycles(pg: PlaneGraph, k):
    """The k-extrovert cycles of pg, k = 2 or 3, as CycleRecords of kind
    "extrovert" with ids 0, 1, ... in the order listed.

    pg may be any biconnected plane 3-graph; an edge with one face on both
    sides, a bridge, raises NotBiconnected, and a k other than 2 or 3
    ValueError. Each side of a k-edge-cut is bounded by the cycle _contour
    reads off the cut faces' arcs, when that is a simple cycle with every
    cut edge a leg. Its inside, a frozenset, is a dual flood from the faces
    on its left that never enters a cut face, and the cycle is k-extrovert
    when that inside does not hold the external face. A 3-extrovert cycle
    is degenerate when its legs meet in one vertex off it. A k-extrovert
    cycle's legs are its cut, and each cut is listed once, so no cycle
    comes twice. O(faces) per cut.
    """
    if k not in (2, 3):
        raise ValueError(f"extrovert cycles have 2 or 3 legs, not {k}")
    across = pg.face_index[0]
    tables = _face_tables(pg)
    ends = pg.graph.edges
    found = []
    for cut, faces in _dual_cycles(pg, k):
        for x in ends[cut[0]]:
            contour = _contour(pg, tables, cut, x, True)
            if contour is None:
                continue
            spans, _, vertices = contour
            # the faces on the left of the reversed darts
            inside = {g for f, i, j in spans
                      for g in _between(across[f], i, j)}
            stack = list(inside)
            while stack:
                for f in across[stack.pop()]:
                    if f not in inside and f not in faces:
                        inside.add(f)
                        stack.append(f)
            if pg.external_face not in inside:
                far = {v for e in cut for v in ends[e] if v not in vertices}
                found.append(_cycle_record(
                    tables, len(found), "extrovert", contour, True,
                    frozenset(inside), k == 3 and len(far) == 1))
    return found


# ---------------------------------------------------------------------------
# reference embeddings


def _reference_face(cuts, faces, f0):
    """f0 when it is on none of `cuts`, the separating triangles
    dual_triangles lists, else the lowest face of `faces` that is on
    none."""
    on_cut = {f for _, tri in cuts for f in tri}
    for f in (f0, *range(len(faces))):
        if f not in on_cut:
            return f
    raise AssertionError("every face lies on a separating triangle")


def compute_reference_embedding(g) -> PlaneGraph:
    """Choose an external face on no separating triangle: the given one
    when it qualifies, else the lowest face id that does.

    Accepts a Graph (embedded with its default rotation) or a PlaneGraph;
    returns the input unchanged when it already qualifies. Raises
    NotTriconnectedCubic as three_cycle_records does.
    """
    pg = g if isinstance(g, PlaneGraph) else embed(g)
    _class_index(pg)
    f = _reference_face(dual_triangles(pg), pg.faces, pg.external_face)
    return pg if f == pg.external_face else pg.with_external_face(f)


# ---------------------------------------------------------------------------
# inclusion trees


class InclusionTree:
    """Containment tree over the cycles round the sides of pg's separating
    cuts away from reference_face, as 3-extrovert cycles there.

    The root is the sentinel None standing for the reference face. A
    cycle's parent is the smallest member whose side holds its own, which
    is the cut tree of _away_sides with record 2c of cut c as its node;
    nodes lists the members in preorder, and depth() counts the steps from
    a cycle up to the root. records are three_cycle_records(pg), seen from
    pg's own external face, so a node is 3-introvert there when that face
    lies in its side. A record's id is its index, so by_id is the records
    list itself.
    """

    root = None

    def __init__(self, pg, records, parent, preorder, reference_face):
        self.pg = pg
        self.records = self.by_id = records
        self.reference_face = reference_face
        self.nodes = [2 * c for c in preorder]
        self.parent = {}
        self.children = defaultdict(list)
        self._depth = {None: 0}
        for c in preorder:
            par = 2 * parent[c] if parent[c] >= 0 else None
            self.parent[2 * c] = par
            self.children[par].append(2 * c)
            self._depth[2 * c] = self._depth[par] + 1

    def depth(self, cid) -> int:
        return self._depth[cid]


def inclusion_tree(pg: PlaneGraph) -> InclusionTree:
    """The inclusion tree of pg's 3-cycle records, rooted at the reference
    face compute_reference_embedding would pick; pg may have any external
    face. Raises NotTriconnectedCubic as three_cycle_records does."""
    return InclusionTree(pg, *_root_records(pg))


def fx_counts(tree: InclusionTree):
    """Number of flexible edges per contour path of every record, keyed by
    (cycle id, path index).

    Each face's boundary gets prefix sums of its flexible edges once, and
    a path's count is the difference across its span; when the graph has
    no flexible edge, every count is 0 and no face is summed."""
    flexible = {e for e, k in tree.pg.graph.flex.items() if k > 0}
    if not flexible:
        return {(r.cycle_id, j): 0
                for r in tree.records for j in range(len(r.spans))}
    sums = [list(accumulate((e in flexible for e, _ in f.boundary),
                            initial=0)) for f in tree.pg.faces]

    def count(f, i, j):  # the flexible edges strictly between i and j
        a = sums[f]
        return a[j] - a[i + 1] if i < j else a[-1] - a[i + 1] + a[j]

    return {(r.cycle_id, j): count(*span)
            for r in tree.records for j, span in enumerate(r.spans)}


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
        rec = tree.by_id[cid]
        cols = ["orange" if fx[(cid, j)] > 0
                else "green" if (cid, f) in green else None
                for j, f in enumerate(rec.leg_faces)]
        if all(c is None for c in cols):
            rec.colors = ("green",) * 3
            rec.demanding = True
        else:
            rec.colors = tuple(c if c is not None else "red" for c in cols)
            rec.demanding = False
        green.update((tree.parent[cid], f)
                     for f, c in zip(rec.leg_faces, rec.colors)
                     if c == "green")


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
    for node in (tree.root, *tree.nodes):
        kids = tree.children.get(node, [])
        if not kids:
            continue
        s_cycles = [tree.by_id[k] for k in kids]
        if node is not None:
            s_cycles.append(tree.by_id[tree.by_id[node].phi_partner])
        green = defaultdict(int)
        for r in s_cycles:
            for j, f in enumerate(r.leg_faces):
                if r.colors[j] == "green":
                    green[f] += 1
        for kid in kids:
            ext_rec = tree.by_id[kid]
            ext_colors = dict(zip(ext_rec.leg_faces, ext_rec.colors))
            intro = tree.by_id[ext_rec.phi_partner]
            cols = ["orange" if fx[(intro.cycle_id, j)] > 0
                    else "green" if green[f] > 1
                    or (green[f] == 1 and ext_colors[f] != "green")
                    else None
                    for j, f in enumerate(intro.leg_faces)]
            if all(c is None for c in cols):
                intro.colors = ("green",) * 3
                intro.demanding = True
            else:
                intro.colors = tuple(c if c is not None else "red"
                                     for c in cols)
                intro.demanding = False


# ---------------------------------------------------------------------------
# demanding sets for an arbitrary external face


@dataclass
class DemandingSets:
    # three_cycle_records(pg), colored: each record's colors belong to its
    # cycle as 3-extrovert or 3-introvert at the reference face
    records: list
    d_set: list  # pairwise non-intersecting demanding 3-extrovert cycles
    d_f: list  # members of d_set with the external face as a leg face
    reference_face: int


def demanding_sets(pg: PlaneGraph) -> DemandingSets:
    """D(G) and D_f(G) for pg's own embedding.

    The 3-cycle records are built once, as pg's external face sees them,
    and their inclusion tree is rooted and colored at a reference face. A
    cycle keeps its coloring in every embedding where it stays
    3-extrovert, and a 3-introvert cycle takes the coloring of the same
    cycle as 3-extrovert in any embedding that turns it inside out.
    Demanding cycles that were 3-introvert at the reference face, the
    nodes' partners, and share the external face as a leg face pairwise
    intersect, and drop out of D(G) when there are two or more of them.
    """
    tree = inclusion_tree(pg)
    fx = fx_counts(tree)
    color_3_extrovert(tree, fx)
    color_3_introvert(tree, fx)

    ext = pg.external_face
    partners = (tree.by_id[tree.by_id[c].phi_partner] for c in tree.nodes)
    i_f = {r.cycle_id for r in partners
           if r.demanding and ext in r.leg_faces}
    drop = i_f if len(i_f) >= 2 else set()
    d_set = [r for r in tree.records
             if r.kind == "extrovert" and r.demanding
             and r.cycle_id not in drop]
    d_f = [r for r in d_set if ext in r.leg_faces]
    return DemandingSets(tree.records, d_set, d_f, tree.reference_face)


# ---------------------------------------------------------------------------
# twins and covers


def twin(pg: PlaneGraph, c: CycleRecord, records) -> CycleRecord:
    """The other boundary cycle of c's own 3-edge-cut: its phi partner.

    Defined exactly when c is non-degenerate and shares an edge with the
    external boundary (equivalently the external face is a leg face); it
    is read from records, three_cycle_records(pg)."""
    if c.degenerate:
        raise NoTwin("degenerate cycles have no twin")
    if pg.external_face not in c.leg_faces:
        raise NoTwin("cycle does not touch the external boundary")
    return next(r for r in records if r.cycle_id == c.phi_partner)


def intersecting_cover(pg: PlaneGraph, cycles, records):
    """Two non-adjacent external edges e1, e2 such that every cycle of a
    pairwise-intersecting family contains one of them; records are
    three_cycle_records(pg), where twin finds a cycle's twin."""
    boundary = pg.faces[pg.external_face].edge_ids()
    if len(boundary) < 4:
        raise ShortExternalFace(
            f"external face {pg.external_face} has {len(boundary)} edges; "
            "a cover needs two non-adjacent ones")
    nondeg = [c for c in cycles if not c.degenerate]
    if nondeg:
        c1 = nondeg[0]
        t = twin(pg, c1, records)
        ext = set(boundary)
        own = sorted(c1.edges & ext)
        other = sorted(t.edges & ext)
        assert own and other, "twin pair misses the external boundary"
        e1, e2 = own[0], other[0]
        assert not set(pg.edge(e1)) & set(pg.edge(e2))
        return e1, e2
    # all degenerate (or empty): any two non-adjacent external edges do
    e1 = boundary[0]
    for e2 in boundary[2:]:
        if not set(pg.edge(e1)) & set(pg.edge(e2)):
            return e1, e2
    raise AssertionError("external face has no non-adjacent edge pair")

