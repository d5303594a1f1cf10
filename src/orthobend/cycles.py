"""Cycle machinery for plane triconnected cubic graphs.

Everything here revolves around one fact: in a triconnected cubic plane
graph, the three legs of a 3-extrovert or 3-introvert cycle form a
3-edge-cut, and 3-edge-cuts are exactly the 3-cycles of the dual over
three distinct faces. Detection therefore enumerates dual triangles and
reads the cycles off the triangle faces' boundaries; no simple-cycle
enumeration happens in production code (the brute-force route lives in
the oracle module and is only used to cross-check this one).

A dual triangle whose three cut edges share a primal vertex v is facial:
it contributes one degenerate cycle around v (extrovert when v lies on
the external boundary, introvert when v is internal). A separating
triangle has two non-trivial sides A and B; the boundary cycle of the
side avoiding the external face is 3-extrovert, the other one is its
3-introvert partner with the same legs, and when the external face is
one of the triangle's own faces both boundaries are 3-extrovert twins.

Moving the external face never changes which cycles and legs exist, only
which side of each cycle is its inside. A record is turned inside out,
3-extrovert and 3-introvert trading places, exactly when the new
external face lies among its inside faces. The records, their inclusion
tree and their colors are therefore computed once, in a reference
embedding, and carried to any other external face by that rule.

Coloring follows the two-step green-counter formulation so that contour
paths are consumed as sequences of edges and child-path pointers and
never flattened.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .errors import NoTwin, NotReferenceEmbedding
from .graph import PlaneGraph, dart_reverse, embed


@dataclass(eq=False)
class CycleRecord:
    """One k=3 cycle with its legs, contour structure and coloring.

    contour_paths[j] runs from leg_vertices[j] to leg_vertices[(j+1)%3]
    with the cycle's inside region on the left of every dart;
    leg_faces[j] is the face the two bounding legs share along path j.
    colors/demanding stay None until a coloring pass fills them, after
    which the record is treated as immutable.
    """

    cycle_id: int
    kind: str  # "extrovert" | "introvert"
    edges: frozenset
    vertices: frozenset
    legs: tuple
    leg_vertices: tuple
    leg_faces: tuple
    contour_paths: tuple
    inside_faces: frozenset
    degenerate: bool
    phi_partner: int | None = None
    colors: tuple | None = None
    demanding: bool | None = None


@dataclass
class TwoExtrovert:
    """A 2-extrovert cycle: both legs outside, no external chord."""

    edges: frozenset
    legs: tuple
    inside_faces: frozenset
    darts: tuple


def dual_triangles(pg: PlaneGraph):
    """All 3-edge-cuts as (cut_edges, cut_faces) with distinct faces.

    cut_edges = (l1, l2, l3) where l1 joins faces[0]|faces[1], l2 joins
    faces[1]|faces[2] and l3 joins faces[2]|faces[0] in the dual.
    """
    pair_edges = defaultdict(list)
    for e in range(pg.m):
        fa, fb = pg.faces_of_edge(e)
        if fa != fb:
            pair_edges[frozenset((fa, fb))].append(e)
    nbrs = defaultdict(set)
    for pair in pair_edges:
        a, b = tuple(pair)
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen = set()
    out = []
    for pair in list(pair_edges):
        f1, f2 = sorted(pair)
        for f3 in nbrs[f1] & nbrs[f2]:
            for l1 in pair_edges[pair]:
                for l2 in pair_edges[frozenset((f2, f3))]:
                    for l3 in pair_edges[frozenset((f3, f1))]:
                        key = frozenset((l1, l2, l3))
                        if key in seen:
                            continue
                        seen.add(key)
                        out.append(((l1, l2, l3), (f1, f2, f3)))
    return out


def _facial_apex(pg, cut):
    """The vertex all three cut edges meet in, or None."""
    count = defaultdict(int)
    for e in cut:
        for w in pg.edge(e):
            count[w] += 1
    for w, k in count.items():
        if k == 3:
            return w
    return None


def separating_triangles(pg: PlaneGraph):
    """Dual triangles whose cut edges do not share a primal vertex."""
    return [(cut, faces) for cut, faces in dual_triangles(pg)
            if _facial_apex(pg, cut) is None]


def _cut_sides(pg: PlaneGraph, cut):
    """Primal vertex sets of the two components left by removing cut."""
    adj = pg.graph.adj
    blocked = set(cut)

    def comp(s):
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for w, e in adj[x]:
                if e not in blocked and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    u0, v0 = pg.edge(cut[0])
    a = comp(u0)
    assert v0 not in a, "cut does not disconnect"
    b = comp(v0)
    assert len(a) + len(b) == pg.n
    return a, b


def _side_arcs(pg: PlaneGraph, cut, faces, side):
    """Per triangle face, the boundary arc running through `side`.

    Returns a list of dart lists (in face-boundary direction); their
    union is the boundary cycle of `side`.
    """
    cutset = set(cut)
    arcs = []
    for f in faces:
        boundary = pg.faces[f].boundary
        pos = [i for i, d in enumerate(boundary) if d[0] in cutset]
        assert len(pos) == 2, "triangle face must carry two cut edges"
        n = len(boundary)
        for p, q in ((pos[0], pos[1]), (pos[1], pos[0])):
            span = [(p + 1 + t) % n for t in range(((q - p) % n) - 1)]
            arc = [boundary[i] for i in span]
            if pg.dart_head(boundary[p]) in side:
                arcs.append(arc)
                break
        else:
            raise AssertionError("no boundary arc on the requested side")
    return arcs


def _record_from_side(pg, rid, cut, side, inside, kind, degenerate, phi):
    """Assemble a CycleRecord for the boundary cycle of `side`."""
    arcs = _side_arcs(pg, cut, _cut_faces(pg, cut), side)
    assert all(arc for arc in arcs), "empty contour arc on a non-trivial side"
    cyc_edges = set()
    for arc in arcs:
        cyc_edges.update(e for e, _ in arc)

    # orient the cycle with its inside region on the left
    pick = {}
    for e in cyc_edges:
        d = (e, 0) if pg.face_of_dart((e, 0)) in inside else (e, 1)
        assert pg.face_of_dart(d) in inside
        pick[pg.dart_tail(d)] = d
    start = next(d for d in pick.values() if d[0] == min(cyc_edges))
    darts = [start]
    while True:
        d = pick[pg.dart_head(darts[-1])]
        if d == start:
            break
        darts.append(d)
    assert len(darts) == len(cyc_edges), "side boundary is not a simple cycle"

    attach = {}
    for e in cut:
        u, v = pg.edge(e)
        attach[u if u in side else v] = e
    marks = [i for i, d in enumerate(darts) if pg.dart_head(d) in attach]
    assert len(marks) == 3
    leg_vertices = tuple(pg.dart_head(darts[i]) for i in marks)
    legs = tuple(attach[w] for w in leg_vertices)

    nn = len(darts)
    paths = []
    leg_faces = []
    for j in range(3):
        a, b = marks[j], marks[(j + 1) % 3]
        span = [(a + 1 + t) % nn for t in range((b - a) % nn or nn)]
        path = tuple(darts[i] for i in span)
        if kind == "extrovert":
            across = {pg.face_of_dart(dart_reverse(d)) for d in path}
        else:
            across = {pg.face_of_dart(d) for d in path}
        assert len(across) == 1, "contour path borders several leg faces"
        paths.append(path)
        leg_faces.append(across.pop())

    verts = set()
    for e in cyc_edges:
        verts.update(pg.edge(e))
    return CycleRecord(
        cycle_id=rid,
        kind=kind,
        edges=frozenset(cyc_edges),
        vertices=frozenset(verts),
        legs=legs,
        leg_vertices=leg_vertices,
        leg_faces=tuple(leg_faces),
        contour_paths=tuple(paths),
        inside_faces=frozenset(inside),
        degenerate=degenerate,
        phi_partner=phi,
    )


def _cut_faces(pg, cut):
    faces = set()
    for e in cut:
        faces.update(pg.faces_of_edge(e))
    assert len(faces) == 3
    return tuple(sorted(faces))


def three_cycle_records(pg: PlaneGraph):
    """All 3-extrovert and 3-introvert cycles of pg, with phi links."""
    ext = pg.external_face
    all_faces = frozenset(range(len(pg.faces)))
    records = []
    for cut, tri_faces in dual_triangles(pg):
        a, b = _cut_sides(pg, cut)
        tri = frozenset(tri_faces)
        if len(a) == 1 or len(b) == 1:
            side = b if len(a) == 1 else a
            side_faces = _side_face_set(pg, side, tri)
            if ext in tri:
                records.append(_record_from_side(
                    pg, len(records), cut, side, side_faces,
                    "extrovert", True, None))
            else:
                # apex vertex is internal: inside is its face fan
                records.append(_record_from_side(
                    pg, len(records), cut, side,
                    all_faces - side_faces, "introvert", True, None))
            continue
        a_faces = _side_face_set(pg, a, tri)
        b_faces = _side_face_set(pg, b, tri)
        if ext in tri:
            records.append(_record_from_side(
                pg, len(records), cut, a, a_faces, "extrovert", False, None))
            records.append(_record_from_side(
                pg, len(records), cut, b, b_faces, "extrovert", False, None))
        else:
            if ext not in b_faces:  # keep the external face on the b side
                a, b = b, a
                a_faces, b_faces = b_faces, a_faces
            i = len(records)
            records.append(_record_from_side(
                pg, i, cut, a, a_faces, "extrovert", False, i + 1))
            records.append(_record_from_side(
                pg, i + 1, cut, b, all_faces - b_faces, "introvert",
                False, i))
    return records


def _side_face_set(pg, side_vertices, tri_faces):
    """Faces strictly on one side of a cut: every non-triangle face has
    all its vertices in a single side, so one boundary vertex decides."""
    out = set()
    for f in pg.faces:
        if f.id in tri_faces or not f.boundary:
            continue
        if pg.dart_tail(f.boundary[0]) in side_vertices:
            out.add(f.id)
    return frozenset(out)


def find_2_extrovert(pg: PlaneGraph):
    """2-extrovert cycles via parallel dual edges (2-edge-cuts)."""
    pair_edges = defaultdict(list)
    for e in range(pg.m):
        fa, fb = pg.faces_of_edge(e)
        if fa != fb:
            pair_edges[frozenset((fa, fb))].append(e)
    ext = pg.external_face
    out = {}
    for pair, es in pair_edges.items():
        if len(es) < 2:
            continue
        fa, fb = tuple(pair)
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                cut = (es[i], es[j])
                sides = _cut_sides(pg, cut)
                for side in sides:
                    rec = _two_record(pg, cut, (fa, fb), side, ext)
                    if rec is not None:
                        out.setdefault(rec.edges, rec)
    return list(out.values())


def _two_record(pg, cut, faces, side, ext):
    cutset = set(cut)
    arcs = []
    for f in faces:
        boundary = pg.faces[f].boundary
        pos = [i for i, d in enumerate(boundary) if d[0] in cutset]
        if len(pos) != 2:
            return None
        n = len(boundary)
        got = None
        for p, q in ((pos[0], pos[1]), (pos[1], pos[0])):
            span = [(p + 1 + t) % n for t in range(((q - p) % n) - 1)]
            arc = [boundary[i] for i in span]
            if arc and pg.dart_head(boundary[p]) in side:
                got = arc
                break
        if got is None:
            return None
        arcs.append(got)
    cyc_edges = {e for arc in arcs for e, _ in arc}
    if len(cyc_edges) != sum(len(a) for a in arcs) or len(cyc_edges) < 3:
        return None
    side_faces = _side_face_set(pg, side, set(faces))
    if ext in side_faces:
        return None  # that side contains the external face: legs inward
    pick = {}
    for e in cyc_edges:
        d = (e, 0) if pg.face_of_dart((e, 0)) in side_faces else (e, 1)
        if pg.face_of_dart(d) not in side_faces:
            return None
        pick[pg.dart_tail(d)] = d
    start = next(d for d in pick.values() if d[0] == min(cyc_edges))
    darts = [start]
    while True:
        d = pick.get(pg.dart_head(darts[-1]))
        if d is None:
            return None
        if d == start:
            break
        darts.append(d)
    if len(darts) != len(cyc_edges):
        return None
    return TwoExtrovert(
        edges=frozenset(cyc_edges),
        legs=tuple(sorted(cut)),
        inside_faces=side_faces,
        darts=tuple(darts),
    )


# ---------------------------------------------------------------------------
# reference embeddings


def is_reference_embedding(pg: PlaneGraph) -> bool:
    """True iff no non-degenerate 3-extrovert cycle touches the external
    face; equivalently the external face is on no separating triangle."""
    ext = pg.external_face
    for _, faces in separating_triangles(pg):
        if ext in faces:
            return False
    return True


def compute_reference_embedding(g) -> PlaneGraph:
    """Choose an external face on no separating triangle.

    Accepts a Graph (embedded with its default rotation) or a PlaneGraph;
    returns the input unchanged when it already qualifies.
    """
    pg = g if isinstance(g, PlaneGraph) else embed(g)
    marked = set()
    for _, faces in separating_triangles(pg):
        marked.update(faces)
    if pg.external_face not in marked:
        return pg
    for f in range(len(pg.faces)):
        if f not in marked:
            return pg.with_external_face(f)
    raise AssertionError("every face lies on a separating triangle")


# ---------------------------------------------------------------------------
# inclusion / genealogical trees


class InclusionTree:
    """Containment tree over non-degenerate 3-extrovert cycles.

    The root is the sentinel None standing for the external boundary.
    Descendant tests are O(1) after the Euler-tour preprocessing.
    """

    def __init__(self, pg, records, root=None, members=None):
        self.pg = pg
        self.records = records
        self.by_id = {r.cycle_id: r for r in records}
        if members is None:
            members = [r for r in records
                       if r.kind == "extrovert" and not r.degenerate]
        self.nodes = [r.cycle_id for r in members]
        self.root = root
        self.parent = {}
        self.children = defaultdict(list)
        by_size = sorted(members, key=lambda r: len(r.inside_faces))
        for i, r in enumerate(by_size):
            par = root
            for s in by_size[i + 1:]:
                if r.inside_faces < s.inside_faces:
                    par = s.cycle_id
                    break
            self.parent[r.cycle_id] = par
            self.children[par].append(r.cycle_id)
        self._tin = {}
        self._tout = {}
        self._depth = {root: 0}
        clock = 0
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                self._tout[node] = clock
                clock += 1
                continue
            self._tin[node] = clock
            clock += 1
            stack.append((node, True))
            for c in self.children.get(node, []):
                self._depth[c] = self._depth[node] + 1
                stack.append((c, False))

    def is_descendant(self, a, b) -> bool:
        """True iff a lies in the subtree of b (a == b counts)."""
        return (self._tin[b] <= self._tin[a]
                and self._tout[a] <= self._tout[b])

    def depth(self, cid) -> int:
        return self._depth[cid]

    def preorder(self):
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children.get(node, [])))
        return order


def inclusion_tree(pg: PlaneGraph, records=None) -> InclusionTree:
    if records is None:
        records = three_cycle_records(pg)
    # the leg faces of a non-degenerate record are its separating triangle
    if any(not r.degenerate and pg.external_face in r.leg_faces
           for r in records):
        raise NotReferenceEmbedding(
            f"external face {pg.external_face} lies on a separating triangle")
    return InclusionTree(pg, records)


def genealogical_tree(pg: PlaneGraph, c: CycleRecord,
                      records=None) -> InclusionTree:
    """Containment tree T_C over the 3-extrovert cycles inside G(C)."""
    if records is None:
        records = three_cycle_records(pg)
    members = [r for r in records
               if r.kind == "extrovert" and not r.degenerate
               and r.cycle_id != c.cycle_id
               and r.inside_faces < c.inside_faces]
    return InclusionTree(pg, records, root=c.cycle_id, members=members)


# ---------------------------------------------------------------------------
# explicit contour-path representations (edges + child-path pointers)


def contour_paths_explicit(tree: InclusionTree):
    """Per extrovert contour path, its sequence of ("e", edge) items and
    ("p", child_id, path_index) pointers. Every edge is stored in exactly
    one sequence and each path is pointed at most once, so the whole
    structure is linear in the graph size (asserted)."""
    pg = tree.pg
    reps = {}
    for cid in tree.nodes:
        rec = tree.by_id[cid]
        kids = tree.children.get(cid, [])
        for j, path in enumerate(rec.contour_paths):
            f = rec.leg_faces[j]
            pos = {d[0]: i for i, d in enumerate(path)}
            intervals = []
            for kid in kids:
                krec = tree.by_id[kid]
                for jj, kf in enumerate(krec.leg_faces):
                    if kf != f:
                        continue
                    kpath = krec.contour_paths[jj]
                    lo = pos[kpath[0][0]]
                    hi = pos[kpath[-1][0]]
                    assert hi - lo + 1 == len(kpath), \
                        "child path is not a contiguous slice"
                    intervals.append((lo, hi, kid, jj))
            intervals.sort()
            items = []
            at = 0
            for lo, hi, kid, jj in intervals:
                assert at <= lo, "child paths overlap"
                items.extend(("e", path[i][0]) for i in range(at, lo))
                items.append(("p", kid, jj))
                at = hi + 1
            items.extend(("e", path[i][0]) for i in range(at, len(path)))
            reps[(cid, j)] = tuple(items)

    stored = [it[1] for seq in reps.values() for it in seq if it[0] == "e"]
    assert len(stored) == len(set(stored)), "an edge is stored twice"
    pointers = sum(1 for seq in reps.values() for it in seq if it[0] == "p")
    assert len(stored) + pointers <= pg.m + 3 * len(tree.nodes)
    return reps


def fx_counts(tree: InclusionTree, reps=None):
    """Number of flexible edges per extrovert contour path (post-order)."""
    if reps is None:
        reps = contour_paths_explicit(tree)
    pg = tree.pg
    fx = {}
    for cid in sorted(tree.nodes, key=tree.depth, reverse=True):
        for j in range(3):
            total = 0
            for it in reps[(cid, j)]:
                if it[0] == "e":
                    total += 1 if pg.graph.flexibility(it[1]) > 0 else 0
                else:
                    total += fx[(it[1], it[2])]
            fx[(cid, j)] = total
    return fx


# ---------------------------------------------------------------------------
# coloring


def color_3_extrovert(tree: InclusionTree, reps=None):
    """Two-step red-green-orange coloring of the non-degenerate
    3-extrovert cycles; returns (records, D, D_f).

    Step 1 marks a path orange when it carries a flexible edge and green
    when one of its child-path pointers is already green; step 2 turns
    all-undefined cycles green (these are the demanding ones) and the
    remaining undefined paths red.
    """
    if reps is None:
        reps = contour_paths_explicit(tree)
    fx = fx_counts(tree, reps)
    colors = {}
    for cid in sorted(tree.nodes, key=tree.depth, reverse=True):
        cols = []
        for j in range(3):
            if fx[(cid, j)] > 0:
                cols.append("orange")
            elif any(it[0] == "p" and colors[(it[1], it[2])] == "green"
                     for it in reps[(cid, j)]):
                cols.append("green")
            else:
                cols.append(None)
        rec = tree.by_id[cid]
        if all(c is None for c in cols):
            rec.colors = ("green",) * 3
            rec.demanding = True
        else:
            rec.colors = tuple(c if c is not None else "red" for c in cols)
            rec.demanding = False
        for j in range(3):
            colors[(cid, j)] = rec.colors[j]
    ext = tree.pg.external_face
    d_set = [tree.by_id[cid] for cid in tree.nodes
             if tree.by_id[cid].demanding]
    d_f = [r for r in d_set if ext in r.leg_faces]
    return tree.records, d_set, d_f


def _face_flex_count(pg, f):
    return sum(1 for e in set(pg.faces[f].edge_ids())
               if pg.graph.flexibility(e) > 0)


def color_3_introvert(tree: InclusionTree, reps=None):
    """Color the partner 3-introvert cycles without expanding them.

    Works top-down: for the children C_1..C_k of a node C, the relevant
    cycle set S is the children plus the partner of C itself. A partner
    path on leg face f' is flexible-free exactly when
    fx(face) - fx(extrovert path) - flexible legs = 0, and it contains a
    green path of another S-cycle exactly when that cycle has a green
    path incident to f'.
    """
    pg = tree.pg
    if reps is None:
        reps = contour_paths_explicit(tree)
    fx = fx_counts(tree, reps)
    if any(tree.by_id[cid].colors is None for cid in tree.nodes):
        color_3_extrovert(tree, reps)
    face_fx = {}
    out = []
    for node in tree.preorder():
        kids = tree.children.get(node, [])
        if not kids:
            continue
        s_cycles = [tree.by_id[k] for k in kids]
        partner = None
        if node is not None and tree.by_id[node].phi_partner is not None:
            partner = tree.by_id[tree.by_id[node].phi_partner]
        if partner is not None:
            s_cycles = s_cycles + [partner]
        green = defaultdict(int)
        for r in s_cycles:
            for j, f in enumerate(r.leg_faces):
                if r.colors and r.colors[j] == "green":
                    green[f] += 1
        for kid in kids:
            ext_rec = tree.by_id[kid]
            if ext_rec.phi_partner is None:
                continue
            intro = tree.by_id[ext_rec.phi_partner]
            cols = {}
            for j, f in enumerate(ext_rec.leg_faces):
                if f not in face_fx:
                    face_fx[f] = _face_flex_count(pg, f)
                legs_on_f = (ext_rec.legs[j], ext_rec.legs[(j + 1) % 3])
                c = sum(1 for e in legs_on_f
                        if pg.graph.flexibility(e) > 0)
                fx_p = face_fx[f] - fx[(kid, j)] - c
                assert fx_p >= 0
                if fx_p > 0:
                    cols[f] = "orange"
                elif green[f] > 1:
                    cols[f] = "green"
                elif green[f] == 1 and ext_rec.colors[j] != "green":
                    cols[f] = "green"
                else:
                    cols[f] = None
            if all(v is None for v in cols.values()):
                intro.colors = ("green",) * 3
                intro.demanding = True
            else:
                intro.colors = tuple(
                    cols[f] if cols[f] is not None else "red"
                    for f in intro.leg_faces)
                intro.demanding = False
            out.append(intro)
    return out


# ---------------------------------------------------------------------------
# demanding sets for an arbitrary external face


@dataclass
class DemandingSets:
    records: list  # pg's 3-cycles; phi links are the reference embedding's
    d_set: list  # pairwise non-intersecting demanding 3-extrovert cycles
    d_f: list  # members of d_set with the external face as a leg face
    reference_face: int


def _inside_out(rec: CycleRecord, all_faces: frozenset) -> CycleRecord:
    """rec as seen from an external face inside it: the other kind, the
    complementary inside, and the walk reversed so that the new inside
    stays on the left. Each contour path keeps its leg face and color."""
    return replace(
        rec,
        kind="introvert" if rec.kind == "extrovert" else "extrovert",
        inside_faces=all_faces - rec.inside_faces,
        legs=tuple(rec.legs[j] for j in (0, 2, 1)),
        leg_vertices=tuple(rec.leg_vertices[j] for j in (0, 2, 1)),
        leg_faces=rec.leg_faces[::-1],
        contour_paths=tuple(tuple(dart_reverse(d) for d in reversed(p))
                            for p in reversed(rec.contour_paths)),
        colors=rec.colors and rec.colors[::-1],
    )


def demanding_sets(pg: PlaneGraph) -> DemandingSets:
    """D(G) and D_f(G) for pg's own embedding.

    The 3-cycle records are built and colored once, in a reference
    embedding. A cycle keeps its coloring in every embedding where it
    stays 3-extrovert, and a 3-introvert cycle takes the coloring of the
    same cycle as 3-extrovert in any embedding that turns it inside out;
    pg's records are the reference ones with every record whose inside
    holds pg's external face turned inside out. Demanding cycles that
    were 3-introvert in the reference embedding and share the external
    face as a leg face pairwise intersect, and drop out of D(G) when
    there are two or more of them.
    """
    ref = compute_reference_embedding(pg)
    tree = inclusion_tree(ref)
    reps = contour_paths_explicit(tree)
    color_3_extrovert(tree, reps)
    color_3_introvert(tree, reps)

    ext = pg.external_face
    all_faces = frozenset(range(len(pg.faces)))
    records = [_inside_out(r, all_faces) if ext in r.inside_faces else r
               for r in tree.records]
    i_f = {r.cycle_id for r in tree.records
           if r.kind == "introvert" and not r.degenerate and r.demanding
           and ext in r.leg_faces}
    drop = i_f if len(i_f) >= 2 else set()
    d_set = [r for r in records
             if r.kind == "extrovert" and not r.degenerate and r.demanding
             and r.cycle_id not in drop]
    d_f = [r for r in d_set if ext in r.leg_faces]
    return DemandingSets(records, d_set, d_f, ref.external_face)


# ---------------------------------------------------------------------------
# twins and covers


def twin(pg: PlaneGraph, c: CycleRecord, records=None) -> CycleRecord:
    """The other boundary cycle of c's own 3-edge-cut.

    Defined exactly when c is non-degenerate and shares an edge with the
    external boundary (equivalently the external face is a leg face)."""
    if c.degenerate:
        raise NoTwin("degenerate cycles have no twin")
    if pg.external_face not in c.leg_faces:
        raise NoTwin("cycle does not touch the external boundary")
    if records is None:
        records = three_cycle_records(pg)
    legs = frozenset(c.legs)
    for r in records:
        if r.cycle_id != c.cycle_id and frozenset(r.legs) == legs \
                and r.edges != c.edges:
            return r
    raise NoTwin("no cycle shares these legs")


def intersecting_cover(pg: PlaneGraph, cycles, records=None):
    """Two non-adjacent external edges e1, e2 such that every cycle of a
    pairwise-intersecting family contains one of them."""
    boundary = pg.faces[pg.external_face].edge_ids()
    assert len(boundary) >= 4
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

