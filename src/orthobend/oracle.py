"""Brute-force reference implementations.

Everything in this module trades speed for independence: bend minimization
is done with a min-cost flow over angle assignments, embeddings are
enumerated as rotation systems, and cycle classification works geometrically
from face incidences. The test suite cross-checks the production pipeline
against these routines; nothing here is used by the pipeline itself.
networkx, which solves the flow, is loaded on the first flow_min_bends
call, not on import, so a process that imports this module and runs no
flow carries none of it.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .errors import Infeasible, NotPlanar, TooLarge
from .graph import Graph, PlaneGraph
from .orthorep import OrthoRep, validate

EMBED_LIMIT = 14


# -- min-cost flow over angle assignments ------------------------------------

def flow_min_bends(pg: PlaneGraph, cap: int | None = None):
    """Minimum total cost of an orthogonal representation of pg.

    Cost is sum over edges of max(0, bends(e) - flex(e)), with flex(e)
    the flexibility pg's graph stores. `cap` bounds the number of bends
    per edge. Returns (cost, OrthoRep witness). Raises Infeasible when no
    orthogonal representation satisfies the cap.

    The model ships one unit of flow per quarter turn: vertices supply
    4 - deg(v) units, faces demand len(f) -+ 4, corners carry up to 3
    units and bends move units between the two faces of an edge.
    """
    import networkx as nx  # loaded on the first flow, not on import

    flex = pg.graph.flexibility
    if pg.m == 0:
        return 0, OrthoRep(pg, {})
    big = 4 * pg.m + 16

    net = nx.MultiDiGraph()
    for v in range(pg.n):
        net.add_node(("v", v), demand=len(pg.rotation[v]) - 4)
    for f in pg.faces:
        want = len(f) + (4 if f.id == pg.external_face else -4)
        net.add_node(("f", f.id), demand=want)
        for d in f.darts:
            net.add_edge(("v", pg.dart_head(d)), ("f", f.id),
                         key=("c", d), capacity=3, weight=0)
    for e in range(pg.m):
        f1, f2 = pg.faces_of_edge(e)
        if f1 == f2:
            # both sides of a bridge see the same face, bends cancel
            continue
        free = flex(e) if cap is None else min(flex(e), cap)
        paid = big if cap is None else max(0, cap - free)
        for o, src, dst in ((0, f1, f2), (1, f2, f1)):
            if free:
                net.add_edge(("f", src), ("f", dst),
                             key=("free", e, o), capacity=free, weight=0)
            if paid:
                net.add_edge(("f", src), ("f", dst),
                             key=("paid", e, o), capacity=paid, weight=1)

    try:
        flow = nx.min_cost_flow(net)
    except nx.NetworkXUnfeasible:
        raise Infeasible("no representation within the bend cap") from None

    angles = {}
    for f in pg.faces:
        for d in f.darts:
            x = flow[("v", pg.dart_head(d))][("f", f.id)][("c", d)]
            angles[d] = 90 * (1 + x)
    bends = {}
    cost = 0
    for e in range(pg.m):
        f1, f2 = pg.faces_of_edge(e)
        if f1 == f2:
            bends[e] = ""
            continue
        left = _bend_flow(flow, f1, f2, e, 0)
        right = _bend_flow(flow, f2, f1, e, 1)
        nbend = left - right
        bends[e] = "L" * nbend if nbend >= 0 else "R" * (-nbend)
        cost += max(0, abs(nbend) - flex(e))
    h = OrthoRep(pg, angles, bends)
    validate(h)
    return cost, h


def _bend_flow(flow, src, dst, e, o):
    row = flow.get(("f", src), {}).get(("f", dst), {})
    return row.get(("free", e, o), 0) + row.get(("paid", e, o), 0)


# -- embedding enumeration ----------------------------------------------------

def enumerate_embeddings(g: Graph, limit: int = EMBED_LIMIT,
                         mirrors: bool = False):
    """All planar rotation systems of g, external face 0.

    Mirror images are suppressed by pinning the rotation of one degree-3
    vertex unless mirrors=True. Guarded: raises TooLarge above `limit`
    vertices, the candidate count grows as 2^(#degree-3 vertices).
    """
    if g.n > limit:
        raise TooLarge(f"{g.n} vertices, embedding enumeration capped at {limit}")
    base = [[d >> 1 for d in g.adj[v]] for v in range(g.n)]
    deg3 = [v for v in range(g.n) if len(base[v]) == 3]
    pinned = deg3[1:] if (deg3 and not mirrors) else deg3
    out = []
    for bits in itertools.product((0, 1), repeat=len(pinned)):
        rot = [list(r) for r in base]
        for v, b in zip(pinned, bits):
            if b:
                rot[v] = [rot[v][0], rot[v][2], rot[v][1]]
        try:
            out.append(PlaneGraph(g, rot, 0))
        except NotPlanar:
            continue
    return out


def brute_min(g: Graph, cap: int | None = None):
    """Minimum cost over every embedding of g, at most EMBED_LIMIT
    vertices, and every external face, with g's own flexibilities."""
    best = None
    for pg in enumerate_embeddings(g):
        for f in range(len(pg.faces)):
            try:
                cost, h = flow_min_bends(pg.with_external_face(f), cap)
            except Infeasible:
                continue
            if best is None or cost < best[0]:
                best = (cost, h)
    if best is None:
        raise Infeasible("no embedding admits a representation within the cap")
    return best


# -- geometric cycle classification ------------------------------------------

def all_simple_cycles(g: Graph):
    """Vertex lists of every simple cycle, each reported once."""
    cycles = []
    for s in range(g.n):
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            for d in g.adj[v]:
                w = g.ends[d ^ 1]
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(list(path))
                elif w > s and w not in path:
                    stack.append((w, path + [w]))
    return cycles


def cycle_edge_ids(g: Graph, cyc):
    return [g.edge_id(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1])]


def cycle_sides(pg: PlaneGraph, cyc_edges) -> tuple[set, set]:
    """(inside faces, outside faces) of a simple cycle."""
    cyc = set(cyc_edges)
    adj = defaultdict(list)
    for e in range(pg.m):
        if e not in cyc:
            f1, f2 = pg.faces_of_edge(e)
            adj[f1].append(f2)
            adj[f2].append(f1)
    outside = {pg.external_face}
    queue = [pg.external_face]
    while queue:
        f = queue.pop()
        for f2 in adj[f]:
            if f2 not in outside:
                outside.add(f2)
                queue.append(f2)
    inside = {f.id for f in pg.faces} - outside
    for e in cyc:
        f1, f2 = pg.faces_of_edge(e)
        assert (f1 in inside) != (f2 in inside), "cycle does not separate"
    return inside, outside


def _walk_cycle(pg: PlaneGraph, cyc_edges, inside):
    """Darts of the cycle in order, inside region on the left."""
    at_vertex = defaultdict(list)
    for e in cyc_edges:
        u, v = pg.edge(e)
        at_vertex[u].append(e)
        at_vertex[v].append(e)
    e0 = min(cyc_edges)
    d = 2 * e0 + (pg.dart_face[2 * e0] not in inside)
    darts = [d]
    while True:
        w = pg.dart_head(d)
        e_next = next(e for e in at_vertex[w] if e != d >> 1)
        d = 2 * e_next + (pg.edge(e_next)[0] != w)
        if d == darts[0]:
            break
        darts.append(d)
    assert len(darts) == len(cyc_edges)
    return darts


def cycle_records(pg: PlaneGraph):
    """Classify every simple cycle of pg as k-extrovert / k-introvert.

    Yields dicts; a cycle that qualifies on both sides yields two records.
    """
    g = pg.graph
    out = []
    for cyc in all_simple_cycles(g):
        cyc_edges = cycle_edge_ids(g, cyc)
        on_c = set(cyc)
        inside, outside = cycle_sides(pg, cyc_edges)
        legs_in, legs_out, chords_in, chords_out = [], [], [], []
        for e in range(pg.m):
            if e in set(cyc_edges):
                continue
            u, v = pg.edge(e)
            touch = (u in on_c) + (v in on_c)
            if touch == 0:
                continue
            f1, _ = pg.faces_of_edge(e)
            is_in = f1 in inside
            if touch == 2:
                (chords_in if is_in else chords_out).append(e)
            else:
                (legs_in if is_in else legs_out).append(e)
        if not chords_out:
            out.append(_make_record(pg, cyc_edges, inside, outside,
                                    legs_out, "extrovert"))
        if not chords_in:
            out.append(_make_record(pg, cyc_edges, inside, outside,
                                    legs_in, "introvert"))
    return out


def _make_record(pg, cyc_edges, inside, outside, legs, kind):
    g = pg.graph
    on_c = set()
    for e in cyc_edges:
        on_c.update(pg.edge(e))
    darts = _walk_cycle(pg, cyc_edges, inside)
    leg_at = {}
    for e in legs:
        u, v = pg.edge(e)
        leg_at[u if u in on_c else v] = e
    marks = [i for i, d in enumerate(darts) if pg.dart_head(d) in leg_at]
    k = len(legs)
    rec = {
        "kind": kind,
        "k": k,
        "edges": frozenset(cyc_edges),
        "vertices": frozenset(on_c),
        "inside_faces": frozenset(inside),
        "legs": (),
        "leg_vertices": (),
        "leg_faces": (),
        "contour_paths": (),
        "degenerate": False,
    }
    if not marks or len(marks) != k:
        return rec
    leg_vertices = tuple(pg.dart_head(darts[i]) for i in marks)
    rec["legs"] = tuple(leg_at[w] for w in leg_vertices)
    rec["leg_vertices"] = leg_vertices
    paths = []
    faces = []
    nn = len(darts)
    for j in range(k):
        a, b = marks[j], marks[(j + 1) % k]
        span = [(a + 1 + t) % nn for t in range((b - a) % nn or nn)]
        path = tuple(darts[i] for i in span)
        paths.append(path)
        if kind == "extrovert":
            side = {pg.dart_face[d ^ 1] for d in path}
        else:
            side = {pg.dart_face[d] for d in path}
        assert len(side) == 1, "contour path spans several side faces"
        faces.append(side.pop())
    rec["contour_paths"] = tuple(paths)
    rec["leg_faces"] = tuple(faces)
    if k == 3:
        far = set()
        for e in rec["legs"]:
            u, v = pg.edge(e)
            far.add(v if u in on_c else u)
        rec["degenerate"] = len(far) == 1
    return rec


def three_extrovert(pg: PlaneGraph):
    return [r for r in cycle_records(pg)
            if r["kind"] == "extrovert" and r["k"] == 3]


def three_introvert(pg: PlaneGraph):
    return [r for r in cycle_records(pg)
            if r["kind"] == "introvert" and r["k"] == 3]


def two_extrovert(pg: PlaneGraph):
    return [r for r in cycle_records(pg)
            if r["kind"] == "extrovert" and r["k"] == 2]


# -- 3-edge-cuts as dual triangles --------------------------------------------

def all_dual_triangles(pg: PlaneGraph):
    """All 3-edge-cuts as (cut_edges, cut_faces) with distinct faces, by
    trying every pair of dual edges that meet at a face.

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


def facial_apex(pg: PlaneGraph, cut):
    """The vertex all three cut edges meet in, or None."""
    common = set(pg.edge(cut[0])).intersection(*map(pg.edge, cut[1:]))
    return common.pop() if common else None


# -- demanding classification -------------------------------------------------

def color_records(pg: PlaneGraph, recs):
    """Bottom-up contour coloring; sets recs[i]['colors'] and ['demanding'].

    Children-first over the containment forest: a cycle is demanding when
    none of its contour paths carries an edge pg's graph makes flexible or
    shares an edge with a green contour path of a child.
    """
    flex = pg.graph.flexibility
    order = sorted(range(len(recs)), key=lambda i: len(recs[i]["inside_faces"]))
    # Direct children = transitive reduction of region containment.  Outside
    # a reference embedding two incomparable cycles may both contain a third,
    # so a cycle can be a direct child of more than one container.
    children = defaultdict(list)
    for i in range(len(recs)):
        for j in range(len(recs)):
            if j == i or not (recs[j]["inside_faces"] < recs[i]["inside_faces"]):
                continue
            shielded = any(
                k != i and k != j
                and recs[j]["inside_faces"] < recs[k]["inside_faces"]
                and recs[k]["inside_faces"] < recs[i]["inside_faces"]
                for k in range(len(recs)))
            if not shielded:
                children[i].append(j)
    for i in order:
        green_child_edges = set()
        for c in children[i]:
            for path, col in zip(recs[c]["contour_paths"], recs[c]["colors"]):
                if col == "green":
                    green_child_edges.update(d >> 1 for d in path)
        flags = []
        for path in recs[i]["contour_paths"]:
            pe = {d >> 1 for d in path}
            flags.append((any(flex(e) > 0 for e in pe),
                          bool(pe & green_child_edges)))
        if not recs[i]["contour_paths"]:
            recs[i]["colors"] = ()
            recs[i]["demanding"] = False
            continue
        if not any(fl or gr for fl, gr in flags):
            recs[i]["colors"] = ("green",) * len(flags)
            recs[i]["demanding"] = True
        else:
            cols = []
            for fl, gr in flags:
                cols.append("orange" if fl else ("green" if gr else "red"))
            recs[i]["colors"] = tuple(cols)
            recs[i]["demanding"] = False
    return recs


def records_intersect(r1, r2) -> bool:
    """Share an edge, and no contour path of one inside one of the other."""
    if not (r1["edges"] & r2["edges"]):
        return False
    for a, b in ((r1, r2), (r2, r1)):
        for p in a["contour_paths"]:
            pe = {d >> 1 for d in p}
            for q in b["contour_paths"]:
                if pe <= {d >> 1 for d in q}:
                    return False
    return True


def brute_demanding(pg: PlaneGraph):
    """All 3-extrovert records of pg, colored by color_records, plus
    (D, D_f).

    D is the set of non-degenerate demanding cycles after discarding every
    member of an intersecting pair; D_f those sharing edges with the
    external face.
    """
    recs = color_records(pg, three_extrovert(pg))
    cand = [r for r in recs if r["demanding"] and not r["degenerate"]]
    drop = set()
    for i in range(len(cand)):
        for j in range(i + 1, len(cand)):
            if records_intersect(cand[i], cand[j]):
                drop.add(i)
                drop.add(j)
    D = [r for i, r in enumerate(cand) if i not in drop]
    ext = set(pg.faces[pg.external_face].edge_ids())
    D_f = [r for r in D if r["edges"] & ext]
    return recs, D, D_f


def brute_cost_formula(pg: PlaneGraph) -> int:
    """Fixed-embedding cost via cycle counting (triconnected cubic only),
    with the flexibilities pg's graph stores.

    Uses the raw sum of external flexibilities, which overstates the usable
    relief when one or two external edges carry most of the slack; the result
    is a lower bound on the true cost, exact whenever no external edge is
    flexible.  The exact discount for flexible external edges is not
    implemented.
    """
    flex = pg.graph.flexibility
    _, D, D_f = brute_demanding(pg)
    ext_flex = sum(flex(e) for e in pg.faces[pg.external_face].edge_ids())
    return len(D) + 4 - min(4, len(D_f) + ext_flex)
