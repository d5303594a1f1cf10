"""Cycle detection, coloring and demanding-set machinery.

The exhaustive searches in orthobend.oracle adjudicate everything the
production code computes via 3-edge-cuts; the min-cost-flow oracle
adjudicates the counting formula itself.
"""

import dataclasses
from collections import Counter

import pytest

from orthobend import cycles, oracle
from orthobend.errors import NoTwin, NotTriconnectedCubic, ShortExternalFace
from orthobend.graph import Graph, PlaneGraph, dart_reverse, embed
from orthobend.orthorep import subdivide_plane

from corpus import (
    cube, grown, k4, nested, nested_blobs, oracle_keys, prism,
    production_keys, record_key, sibling_fixture, theta_fixture,
    truncated_prism,
)

CORPUS = grown(7, 20)
CORPUS_NOFLEX = [Graph(g.n, g.edges) for g in CORPUS]
NESTED = [nested(1, 200), nested(2, 400)]

# cubic but not triconnected: two K4s less an edge, joined by two edges
TWO_DIAMONDS = Graph(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                         (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
                         (0, 4), (3, 7)])


def all_faces(g):
    pg0 = embed(g)
    return [pg0.with_external_face(f) for f in range(len(pg0.faces))]


def records(pg):
    """The non-degenerate 3-cycle records of pg, two per separating cut."""
    return cycles.inclusion_tree(pg).records


def all_records(pg):
    """Every 3-extrovert and 3-introvert cycle of pg, facial ones too."""
    return records(pg) + cycles.facial_records(pg)


def reference(pg):
    """pg's embedding at its reference face, on no separating triangle."""
    return pg.with_external_face(cycles.inclusion_tree(pg).reference_face)


def is_reference(pg):
    """pg's external face is on no separating triangle."""
    return cycles.inclusion_tree(pg).reference_face == pg.external_face


def vertex_set(g, edge_ids):
    out = set()
    for e in edge_ids:
        out.update(g.edges[e])
    return frozenset(out)


def find_record(pg, recs, vertices, kind):
    for r in recs:
        if r.kind == kind and vertex_set(pg.graph, r.edges) == frozenset(vertices):
            return r
    raise AssertionError(f"no {kind} record on {sorted(vertices)}")


# ---------------------------------------------------------------------------
# detection


@pytest.mark.parametrize("builder", [k4, prism, cube])
def test_three_cycle_detection_matches_exhaustive_search(builder):
    for pg in all_faces(builder()):
        want = oracle_keys(oracle.three_extrovert(pg)
                           + oracle.three_introvert(pg))
        got = production_keys(all_records(pg))
        assert got == want


def test_three_cycle_detection_on_grown_corpus():
    for g in CORPUS:
        for pg in all_faces(g):
            want = oracle_keys(r for r in oracle.cycle_records(pg)
                               if r["k"] == 3)
            assert production_keys(all_records(pg)) == want


def test_inclusion_tree_rejects_graphs_outside_the_class():
    """Degree-2 vertices, 2-edge-cuts and bridges are refused up front,
    each naming its witness; the subdivided graphs include one that made
    the records loop."""
    for g in CORPUS:
        pg = embed(g)
        for e in range(pg.m):
            sub, _, _ = subdivide_plane(pg, {e: 1})
            with pytest.raises(NotTriconnectedCubic,
                               match=rf"vertex {g.n} has degree 2"):
                cycles.inclusion_tree(sub)
    g = next(g for g in CORPUS if g.n == 12)
    sub, _, _ = subdivide_plane(embed(g).with_external_face(3),
                                {0: 1, 4: 1, 8: 2, 13: 1})
    with pytest.raises(NotTriconnectedCubic, match="vertex 12 has degree 2"):
        cycles.inclusion_tree(sub)
    bridged = Graph(10, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4),
                         (3, 4), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8),
                         (5, 9), (8, 9), (4, 9)])
    for g, witness in ((TWO_DIAMONDS, r"edges 10 and 11 both join faces"),
                       (bridged, r"edge 14 has face \d+ on both sides")):
        assert g.is_cubic()
        for pg in all_faces(g):
            with pytest.raises(NotTriconnectedCubic, match=witness):
                cycles.inclusion_tree(pg)


def test_partner_pairing_is_an_involution():
    for g in CORPUS:
        for pg in all_faces(g):
            recs = records(pg)
            of_id = {r.cycle_id: r for r in recs}
            for r in recs:
                if r.kind != "extrovert":
                    continue
                partner = of_id[r.phi_partner]
                # legs on the boundary: the partner is the other
                # 3-extrovert cycle of the cut, its twin
                assert partner.kind == (
                    "extrovert" if pg.external_face in r.leg_faces
                    else "introvert")
                assert frozenset(partner.legs) == frozenset(r.legs)
                assert partner.phi_partner == r.cycle_id
                assert partner.edges != r.edges
            # records 2c and 2c + 1 share their leg faces, and on each one
            # their arcs are complementary: spans (f, i, j) and (f, j, i)
            for a, b in zip(recs[::2], recs[1::2]):
                assert (a.cycle_id, b.cycle_id) == (b.phi_partner,
                                                    a.phi_partner)
                assert sorted(a.leg_faces) == sorted(b.leg_faces)
                assert {(f, j, i) for f, i, j in a.spans} == set(b.spans)


def test_record_structure_invariants():
    """At every face of CORPUS and, at the sizes the record pass is tuned
    on, at every 16th face and a reference face of NESTED."""
    planes = [pg for g in CORPUS for pg in all_faces(g)]
    for g in NESTED:
        planes += all_faces(g)[::16]
        planes.append(reference(embed(g)))
    for pg in planes:
        g = pg.graph
        for r in all_records(pg):
            assert len(r.legs) == 3 and len(r.contour_paths) == 3
            # each leg has exactly one endpoint on the cycle
            for leg in r.legs:
                u, v = g.edges[leg]
                assert (u in r.vertices) + (v in r.vertices) == 1
            walked = [d for path in r.contour_paths for d in path]
            assert frozenset(e for e, _ in walked) == r.edges
            assert len(walked) == len(r.edges)
            # the path holding the smallest dart comes last
            assert min(walked) in r.contour_paths[-1]
            far = {u if v in r.vertices else v
                   for leg in r.legs for u, v in [g.edges[leg]]}
            assert r.degenerate == (len(far) == 1)


def inside_by_flood(pg, r):
    """The faces on the left of r's contour darts and every face reached
    from them without crossing an edge of the cycle."""
    seen = {pg.face_of_dart(d) for path in r.contour_paths for d in path}
    stack = list(seen)
    while stack:
        for e in pg.faces[stack.pop()].edge_ids():
            for f in pg.faces_of_edge(e):
                if e not in r.edges and f not in seen:
                    seen.add(f)
                    stack.append(f)
    return frozenset(seen)


@pytest.mark.parametrize("g", NESTED, ids=lambda g: f"n{g.n}")
def test_records_on_deeply_nested_graphs(g):
    """Every record checked from scratch, far beyond the oracle's reach:
    its inside by a plain flood, its sides dart by dart, its walk."""
    pg0 = embed(g)
    for pg in (pg0, reference(pg0)):
        for r in all_records(pg):
            assert frozenset(r.inside_faces) == inside_by_flood(pg, r)
            darts = [d for path in r.contour_paths for d in path]
            for j, path in enumerate(r.contour_paths):
                assert pg.dart_tail(path[0]) == r.leg_vertices[j]
                assert r.leg_vertices[j] in g.edges[r.legs[j]]
                for d in path:
                    left = pg.face_of_dart(d)
                    right = pg.face_of_dart(dart_reverse(d))
                    assert left in r.inside_faces
                    assert right not in r.inside_faces
                    # the leg face is the outside face of an extrovert
                    # path and the inside face of an introvert one
                    assert r.leg_faces[j] == (
                        right if r.kind == "extrovert" else left)
            # one simple cycle: each dart ends where the next begins, and
            # no vertex or edge comes twice
            for d, nxt in zip(darts, darts[1:] + darts[:1]):
                assert pg.dart_head(d) == pg.dart_tail(nxt)
            tails = [pg.dart_tail(d) for d in darts]
            assert len(set(tails)) == len(darts) == len(r.edges)
            assert frozenset(tails) == r.vertices


class CountingList(list):
    """A list that counts reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_inclusion_tree_expands_each_face_a_bounded_number_of_times():
    """No cut pays a flood of its own. On nested(1, 1600), with 796
    separating cuts over 802 faces, listing the cuts reads none of the
    faces' dual neighbour lists, and flooding the sides reads the list of
    each face a side takes once, at most F times in all; a flood per cut
    reads them Θ(F²) times."""
    pg = embed(nested(1, 1600))
    pg.face_index = counted = CountingList(pg.face_index)
    cuts = len(records(pg)) // 2
    faces = len(pg.faces)
    assert cuts > faces * 9 // 10
    assert counted.reads <= faces


def test_separating_cuts_and_facial_records_match_the_oracle():
    """The face index lists each separating dual triangle once, l1 f|g,
    l2 g|h and l3 h|f, and facial_records has the cycle round each vertex
    v with id -1 - v; both refereed by the brute dual-triangle search, and
    the facial cycles on the small graphs by the simple-cycle search."""
    for g in CORPUS + NESTED[:1]:
        for pg in all_faces(g):
            got = cycles.dual_triangles(pg)
            for cut, faces in got:
                for j, e in enumerate(cut):
                    assert set(pg.faces_of_edge(e)) \
                        == {faces[j], faces[(j + 1) % 3]}
            apex = {frozenset(cut): oracle.facial_apex(pg, cut)
                    for cut, _ in oracle.all_dual_triangles(pg)}
            assert Counter(frozenset(cut) for cut, _ in got) \
                == Counter(cut for cut, v in apex.items() if v is None)
            facial = cycles.facial_records(pg)
            assert {frozenset(r.legs): -1 - r.cycle_id for r in facial} \
                == {cut: v for cut, v in apex.items() if v is not None}
            if g.n <= 16:
                want = [r for r in oracle.three_extrovert(pg)
                        + oracle.three_introvert(pg) if r["degenerate"]]
                assert production_keys(facial) == oracle_keys(want)


def test_dual_triangles_are_the_dual_cycles_whose_l1_and_l2_do_not_meet():
    """dual_triangles lists what _dual_cycles lists, less the triangles
    whose first two cut edges meet, in the same order: at every face of
    CORPUS and on NESTED."""
    for pg in [pg for g in CORPUS for pg in all_faces(g)] \
            + [embed(g) for g in NESTED]:
        ends = pg.graph.edges
        want = [(cut, tri) for cut, tri in cycles._dual_cycles(pg, 3)
                if not set(ends[cut[0]]) & set(ends[cut[1]])]
        assert cycles.dual_triangles(pg) == want


def test_demanding_sets_build_no_facial_record(monkeypatch):
    """Two records per separating cut and none round a vertex, at every
    face of a graph grown like the benchmark's every-face queries: the
    per-cut builder runs once per separating cut, and nothing else builds
    a record."""
    built = []

    def counted(*args, **kwargs):
        pair = cut_records(*args, **kwargs)
        built.extend(pair)
        return pair

    def no_record(*args, **kwargs):
        raise AssertionError("a record built outside the per-cut builder")

    cut_records = cycles._cut_records
    monkeypatch.setattr(cycles, "_cut_records", counted)
    monkeypatch.setattr(cycles, "_record", no_record)
    for pg in all_faces(nested(1, 60)):
        built.clear()
        cycles.demanding_sets(pg)
        separating = sum(1 for cut, _ in oracle.all_dual_triangles(pg)
                         if oracle.facial_apex(pg, cut) is None)
        assert separating > 0
        assert len(built) == 2 * separating
        assert not any(r.degenerate for r in built)


def test_demanding_sets_check_the_class_and_root_the_records_once(
        monkeypatch):
    """One class check, one reference-face pick, no copy of the embedding
    and two records per separating cut, copies included, per query at
    every face of CORPUS."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_class_index", "_reference_face"):
        monkeypatch.setattr(cycles, name, counted(name, getattr(cycles, name)))
    monkeypatch.setattr(PlaneGraph, "with_external_face", counted(
        "with_external_face", PlaneGraph.with_external_face))
    monkeypatch.setattr(cycles.CycleRecord, "__init__", counted(
        "CycleRecord", cycles.CycleRecord.__init__))
    for g in CORPUS:
        for pg in all_faces(g):
            separating = sum(1 for cut, _ in oracle.all_dual_triangles(pg)
                             if oracle.facial_apex(pg, cut) is None)
            calls.clear()
            cycles.demanding_sets(pg)
            assert calls == Counter(_class_index=1, _reference_face=1,
                                    CycleRecord=2 * separating)


# ---------------------------------------------------------------------------
# 2-extrovert cycles


def test_no_two_extrovert_cycles_in_triconnected_graphs():
    for builder in (prism, cube, theta_fixture):
        for pg in all_faces(builder()):
            assert cycles.extrovert_cycles(pg, 2) == []


def test_two_extrovert_from_external_subdivision():
    """Splitting one external edge creates exactly one 2-extrovert cycle:
    the boundary of everything except the segments, with the two end
    segments as legs however often the edge is split."""
    for builder in (prism, cube):
        pg = embed(builder())
        for e in sorted(pg.external_boundary_edges()):
            for count in (1, 2, 3):
                real, _, segs = subdivide_plane(pg, {e: count})
                two = cycles.extrovert_cycles(real, 2)
                assert len(two) == 1
                cyc = two[0]
                ends = (segs[e][0], segs[e][-1])
                assert frozenset(cyc.legs) == frozenset(ends)
                f1, f2 = real.faces_of_edge(segs[e][0])
                rim = (set(real.faces[f1].edge_ids())
                       | set(real.faces[f2].edge_ids()))
                assert cyc.edges == frozenset(rim - set(segs[e]))
                want = {(r["edges"], frozenset(r["legs"]))
                        for r in oracle.two_extrovert(real)}
                assert {(cyc.edges, frozenset(cyc.legs))} == want


def test_no_two_extrovert_from_internal_subdivision():
    pg = embed(prism())
    internal = sorted(set(range(pg.m)) - pg.external_boundary_edges())[0]
    sub, _, _ = subdivide_plane(pg, {internal: 1})
    assert cycles.extrovert_cycles(sub, 2) == []


def test_plain_quadrilateral_has_no_two_extrovert_cycle():
    pg = embed(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert cycles.extrovert_cycles(pg, 2) == []


# ---------------------------------------------------------------------------
# reference embeddings


def test_reference_embedding_detection():
    pg0 = embed(prism())
    flags = {f: is_reference(pg0.with_external_face(f))
             for f in range(len(pg0.faces))}
    # exactly the two triangular faces qualify
    tri = {f for f in flags
           if len(set(pg0.faces[f].edge_ids())) == 3}
    assert {f for f, ok in flags.items() if ok} == tri
    # no non-degenerate 3-extrovert cycle at all: every face qualifies
    for pg in all_faces(k4()):
        assert is_reference(pg)


def test_reference_faces_are_on_no_separating_dual_triangle():
    for g in CORPUS + NESTED[:1]:
        for pg in all_faces(g):
            on_separating = any(
                pg.external_face in faces
                for cut, faces in oracle.all_dual_triangles(pg)
                if oracle.facial_apex(pg, cut) is None)
            assert is_reference(pg) == (not on_separating)


def test_reference_embedding_rejects_graphs_outside_the_class():
    """Subdivided graphs and a cubic graph with a 2-edge-cut are refused
    up front at every face, also by demanding_sets; some of them used to
    fail an assertion deep inside."""
    outside = [all_faces(TWO_DIAMONDS)]
    for g in grown(5, 20) + [prism(), cube(), k4()]:
        sub, _, _ = subdivide_plane(embed(g), {0: 1})
        outside.append([sub.with_external_face(f)
                        for f in range(len(sub.faces))])
    for pgs in outside:
        for pg in pgs:
            with pytest.raises(NotTriconnectedCubic):
                cycles.inclusion_tree(pg)
            with pytest.raises(NotTriconnectedCubic):
                cycles.facial_records(pg)
            with pytest.raises(NotTriconnectedCubic):
                cycles.demanding_sets(pg)


def test_reference_face_is_the_query_face_when_it_qualifies():
    """The tree's reference face is the query's own external face when
    that face is on no separating triangle, the oracle's, and otherwise
    the lowest face that is on none."""
    for g in [prism()] + CORPUS:
        pg0 = embed(g)
        on_cut = {f for cut, tri in oracle.all_dual_triangles(pg0)
                  if oracle.facial_apex(pg0, cut) is None for f in tri}
        lowest = min(set(range(len(pg0.faces))) - on_cut)
        for pg in all_faces(g):
            f = pg.external_face
            assert cycles.inclusion_tree(pg).reference_face \
                == (lowest if f in on_cut else f)


def test_inclusion_tree_shapes():
    # prism: one non-degenerate cycle hanging off the root
    ref = reference(embed(prism()))
    tree = cycles.inclusion_tree(ref)
    assert len(tree.nodes) == 1
    assert tree.children[tree.root] == tree.nodes

    # two triangles side by side: both are children of the root
    g = sibling_fixture()
    pg0 = embed(g)
    ring = next(f for f in range(len(pg0.faces))
                if vertex_set(g, set(pg0.faces[f].edge_ids()))
                == frozenset({8, 9, 10, 11}))
    pg = pg0.with_external_face(ring)
    tree = cycles.inclusion_tree(pg)
    tops = {vertex_set(g, tree.records[c].edges)
            for c in tree.children[tree.root]}
    assert frozenset({0, 1, 2}) in tops and frozenset({3, 4, 5}) in tops

    # truncated prism: a two-link chain
    g = truncated_prism()
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    pent = next(c for c in tree.nodes if len(tree.records[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.records[c].edges) == 3)
    assert tree.parent[pent] == tree.root and tree.parent[tri] == pent


def _assert_depth_is_parent_chain(tree):
    assert tree.depth(tree.root) == 0
    for c in tree.nodes:
        steps, node = 0, c
        while node != tree.root:
            node = tree.parent[node]
            steps += 1
        assert tree.depth(c) == steps


def reference_faces(g):
    return [pg for pg in all_faces(g) if is_reference(pg)]


def test_inclusion_tree_depth_counts_the_parent_chain():
    for g in CORPUS:
        for pg in reference_faces(g):
            _assert_depth_is_parent_chain(cycles.inclusion_tree(pg))
    ref = reference(embed(NESTED[0]))
    _assert_depth_is_parent_chain(cycles.inclusion_tree(ref))


def test_inclusion_tree_parents_are_the_smallest_flooded_supersets():
    """Each parent is the member whose inside, flooded from scratch, is the
    smallest strict superset of the cycle's own, and the root when no
    member's is; at every reference face of CORPUS and on NESTED."""
    cases = [pg for g in CORPUS for pg in reference_faces(g)]
    cases += [reference(embed(g)) for g in NESTED]
    non_root = 0
    for pg in cases:
        tree = cycles.inclusion_tree(pg)
        flood = {c: inside_by_flood(pg, tree.records[c]) for c in tree.nodes}
        for c in tree.nodes:
            want = min((d for d in tree.nodes if flood[c] < flood[d]),
                       key=lambda d: len(flood[d]), default=tree.root)
            assert tree.parent[c] == want
            non_root += want is not tree.root
    assert non_root > NESTED[1].n // 4


def ext_on_vertices(g, verts):
    pg0 = embed(g)
    f = next(f for f in range(len(pg0.faces))
             if vertex_set(g, set(pg0.faces[f].edge_ids())) == frozenset(verts))
    return pg0.with_external_face(f)


def test_inclusion_tree_is_the_same_at_every_face():
    """Built at any external face, the tree is rooted at the reference face
    and equals the tree of the reference copy."""
    for g in CORPUS:
        for pg in all_faces(g):
            tree = cycles.inclusion_tree(pg)
            ref = cycles.inclusion_tree(reference(pg))
            assert tree.reference_face == ref.reference_face \
                == ref.pg.external_face
            assert tree.nodes == ref.nodes and tree.parent == ref.parent


# ---------------------------------------------------------------------------
# contour paths of the inclusion tree


def test_child_paths_are_disjoint_slices_of_the_parent_path():
    """A child's contour path on leg face f runs, dart for dart, along a
    stretch of its parent's path on f, and the stretches of siblings do not
    overlap; at every reference face of CORPUS and on NESTED."""
    cases = [pg for g in CORPUS for pg in reference_faces(g)]
    cases += [reference(embed(g)) for g in NESTED]
    sliced = 0
    for pg in cases:
        tree = cycles.inclusion_tree(pg)
        for cid in tree.nodes:
            rec = tree.records[cid]
            for f, path in zip(rec.leg_faces, rec.contour_paths):
                at = {d: i for i, d in enumerate(path)}
                spans = []
                for kid in tree.children[cid]:
                    krec = tree.records[kid]
                    for kf, kpath in zip(krec.leg_faces, krec.contour_paths):
                        if kf == f:
                            lo = at[kpath[0]]
                            assert path[lo:lo + len(kpath)] == kpath
                            spans.append((lo, lo + len(kpath)))
                spans.sort()
                assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
                sliced += len(spans)
    assert sliced > NESTED[1].n // 4


def test_flexible_edge_counts_include_the_child_slice():
    """A parent path's count takes in the flexible edges of the child path
    on the same leg face as well as its own, because that child path is a
    slice of the parent path."""
    g0 = truncated_prism()
    eid = g0.edge_id
    g = Graph(8, g0.edges, {eid(5, 6): 2, eid(5, 2): 1, eid(0, 3): 3})
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    fx = cycles.fx_counts(tree)
    pent = next(c for c in tree.nodes if len(tree.records[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.records[c].edges) == 3)
    assert sorted(fx.get((tri, j), 0) for j in range(3)) == [0, 0, 1]
    assert sorted(fx.get((pent, j), 0) for j in range(3)) == [0, 0, 1]

    # flex on a parent's own edge and on the child path on the same leg
    # face are both visible from the parent
    prec, trec = tree.records[pent], tree.records[tri]
    f = next(f for f in prec.leg_faces if f in trec.leg_faces)
    j = prec.leg_faces.index(f)
    child = [e for e, _ in trec.contour_paths[trec.leg_faces.index(f)]]
    own = next(e for e, _ in prec.contour_paths[j] if e not in child)
    g2 = Graph(8, g0.edges, {own: 2, child[0]: 3})
    pg2 = ext_on_vertices(g2, {2, 3, 4})
    fx2 = cycles.fx_counts(cycles.inclusion_tree(pg2))
    assert fx2[(pent, j)] == 2


def test_flexible_edge_counts_match_a_count_along_the_paths():
    """fx_counts reads each path's count off per-face prefix sums; at
    every face of seeded grown graphs, it lists exactly the paths with a
    flexible edge on their darts, with their number. The records hold
    spans: no field stores the paths, their edges, vertices or leg
    vertices."""
    names = {f.name for f in dataclasses.fields(cycles.CycleRecord)}
    assert not names & {"contour_paths", "edges", "vertices", "leg_vertices"}
    counted = 0
    for seed in (1, 2, 3):
        for g in grown(seed, 20, 6, 0.3):
            for pg in all_faces(g):
                tree = cycles.inclusion_tree(pg)
                want = {(r.cycle_id, j): sum(g.flexibility(e) > 0
                                             for e, _ in path)
                        for r in tree.records
                        for j, path in enumerate(r.contour_paths)}
                assert cycles.fx_counts(tree) == {
                    key: v for key, v in want.items() if v > 0}
                counted += sum(v > 0 for v in want.values())
    assert counted > 0


# ---------------------------------------------------------------------------
# coloring


def test_extrovert_coloring_matches_exhaustive_search():
    for g in CORPUS:
        ref = reference(embed(g))
        tree = cycles.inclusion_tree(ref)
        cycles.color_3_extrovert(tree, cycles.fx_counts(tree))
        want = {}
        for r in oracle.color_records(ref, oracle.three_extrovert(ref)):
            if not r["degenerate"]:
                want[record_key(r["edges"], r["legs"], "extrovert", False)] = \
                    dict(zip(r["leg_faces"], r["colors"]))
        for cid in tree.nodes:
            rec = tree.records[cid]
            key = record_key(rec.edges, rec.legs, "extrovert", False)
            assert dict(zip(rec.leg_faces, rec.colors)) == want[key]


def test_demanding_sets_match_exhaustive_everywhere():
    """Every embedding choice, including the non-reference ones the colors
    get transported into."""
    for g in CORPUS:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            _, D, Df = oracle.brute_demanding(pg)
            assert {(r.edges, frozenset(r.legs)) for r in ds.d_set} \
                == {(r["edges"], frozenset(r["legs"])) for r in D}
            assert {(r.edges, frozenset(r.legs)) for r in ds.d_f} \
                == {(r["edges"], frozenset(r["legs"])) for r in Df}


def full_record_key(r):
    sides = frozenset(zip(r.leg_vertices, r.legs, r.leg_faces,
                          r.contour_paths))
    return (r.kind, r.degenerate, r.edges, frozenset(r.inside_faces), sides)


def test_records_at_any_face_are_reference_records_turned_inside_out():
    """A record is turned inside out exactly when its inside holds the
    external face; its colors stay with their leg faces."""
    for g in CORPUS:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            want = Counter(map(full_record_key, records(pg)))
            assert Counter(map(full_record_key, ds.records)) == want
            ref = pg.with_external_face(ds.reference_face)
            for r0, r in zip(cycles.demanding_sets(ref).records, ds.records):
                assert r.cycle_id == r0.cycle_id and r.edges == r0.edges
                assert ((r.kind != r0.kind)
                        == (pg.external_face in r0.inside_faces))
                assert r.demanding == r0.demanding
                if r.colors is not None:
                    assert dict(zip(r.leg_faces, r.colors)) \
                        == dict(zip(r0.leg_faces, r0.colors))


def test_cycle_count_formula_is_brute_cost_formula_and_bounds_the_flow():
    """The count demanding_sets gives is oracle.brute_cost_formula, the
    contract the solve benchmark's referee applies, at every face: the
    flow optimum when no external edge is flexible, at most that
    otherwise."""
    exact = bounded = 0
    for g in CORPUS + CORPUS_NOFLEX:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            ext_flex = sum(g.flexibility(e)
                           for e in pg.external_boundary_edges())
            formula = oracle.brute_cost_formula(pg)
            assert formula \
                == len(ds.d_set) + 4 - min(4, len(ds.d_f) + ext_flex)
            cost, _ = oracle.flow_min_bends(pg)
            if ext_flex:
                assert formula <= cost
                bounded += 1
            else:
                assert formula == cost
                exact += 1
    assert exact and bounded


# ---------------------------------------------------------------------------
# twins and covers


def test_twin_pairs_up_cycles_on_the_external_face():
    g = prism()
    pg0 = embed(g)
    quad = next(f for f in range(len(pg0.faces))
                if len(set(pg0.faces[f].edge_ids())) == 4)
    pg = pg0.with_external_face(quad)
    recs = records(pg)
    t1 = find_record(pg, recs, {0, 1, 2}, "extrovert")
    t2 = cycles.twin(pg, t1, recs)
    assert vertex_set(g, t2.edges) == frozenset({3, 4, 5})
    assert cycles.twin(pg, t2, recs) is t1
    boundary = pg.external_boundary_edges()
    assert boundary <= set(t1.edges) | set(t2.edges) | set(t1.legs)


def test_twin_across_a_shared_contour_path():
    g = theta_fixture()
    pg = ext_on_vertices(g, {0, 2, 3, 6, 7})
    recs = records(pg)
    c1 = find_record(pg, recs, {0, 1, 2, 3, 4, 5}, "extrovert")
    t = cycles.twin(pg, c1, recs)
    assert vertex_set(g, t.edges) == frozenset({6, 7, 8, 9, 13, 15})


def test_twin_undefined_off_the_boundary_and_for_degenerate_cycles():
    g = truncated_prism()
    pg = ext_on_vertices(g, {2, 3, 4})
    recs = records(pg)
    tri = find_record(pg, recs, {5, 6, 7}, "extrovert")
    with pytest.raises(NoTwin):
        cycles.twin(pg, tri, recs)
    pg4 = embed(k4())
    recs4 = all_records(pg4)
    degen = next(r for r in recs4 if r.kind == "extrovert" and r.degenerate)
    with pytest.raises(NoTwin):
        cycles.twin(pg4, degen, recs4)


def test_cover_for_single_and_paired_families():
    g = prism()
    pg0 = embed(g)
    quad = next(f for f in range(len(pg0.faces))
                if len(set(pg0.faces[f].edge_ids())) == 4)
    pg = pg0.with_external_face(quad)
    recs = records(pg)
    t1 = find_record(pg, recs, {0, 1, 2}, "extrovert")
    e1, e2 = cycles.intersecting_cover(pg, [t1], recs)
    boundary = pg.external_boundary_edges()
    assert {e1, e2} <= boundary
    assert not set(g.edges[e1]) & set(g.edges[e2])
    assert e1 in t1.edges or e2 in t1.edges

    g = theta_fixture()
    pg = ext_on_vertices(g, {0, 2, 3, 6, 7})
    recs = records(pg)
    c1 = find_record(pg, recs, {0, 1, 2, 3, 4, 5}, "extrovert")
    c2 = find_record(pg, recs, {0, 1, 6, 7, 8, 9}, "extrovert")
    e1, e2 = cycles.intersecting_cover(pg, [c1, c2], recs)
    for c in (c1, c2):
        assert e1 in c.edges or e2 in c.edges
    assert not set(g.edges[e1]) & set(g.edges[e2])


def test_cover_for_degenerate_and_empty_families():
    g = cube()
    pg = embed(g)
    recs = all_records(pg)
    family = [r for r in recs if r.kind == "extrovert" and r.degenerate
              and set(r.legs) & pg.external_boundary_edges()]
    assert len(family) == 4
    e1, e2 = cycles.intersecting_cover(pg, family, recs)
    assert not set(g.edges[e1]) & set(g.edges[e2])
    for r in family:
        assert e1 in r.edges or e2 in r.edges
    e1, e2 = cycles.intersecting_cover(pg, [], recs)
    assert {e1, e2} <= pg.external_boundary_edges()
    assert not set(g.edges[e1]) & set(g.edges[e2])


def test_cover_rejects_a_triangular_external_face():
    """A triangle has no two non-adjacent edges: the prism's two triangles
    and every face of K4 are refused with a typed error naming the face."""
    refused = 0
    for g in (prism(), k4()):
        for pg in all_faces(g):
            if len(pg.faces[pg.external_face]) != 3:
                continue
            refused += 1
            with pytest.raises(ShortExternalFace,
                               match=f"external face {pg.external_face} "
                                     "has 3 edges"):
                cycles.intersecting_cover(pg, [], all_records(pg))
    assert refused == 2 + 4


# ---------------------------------------------------------------------------
# the nested-blobs fixture: trees, colors, demanding sets, cost


BLOB_NAMES = {
    frozenset({0, 1, 2}): "A1",
    frozenset({3, 4, 5}): "A2",
    frozenset({6, 7, 8}): "A3",
    frozenset(range(0, 9)): "ring9A",
    frozenset({0, 1, 2, 3, 4, 6, 8, 9, 10}): "collar1",
    frozenset({0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 12}): "collar2",
    frozenset(range(13, 19)): "hexA",
    frozenset(range(14, 21)): "ring7A",
    frozenset({21, 22, 23}): "B1",
    frozenset({24, 25, 26}): "B2",
    frozenset({27, 28, 29}): "B3",
    frozenset(range(21, 30)): "ring9B",
}


def blob_faces():
    g = nested_blobs()
    eid = g.edge_id
    pg0 = embed(g)
    pairs = [(eid(16, 21), eid(19, 24)), (eid(19, 24), eid(20, 27)),
             (eid(16, 21), eid(20, 27))]
    out = []
    for pair in pairs:
        f = next(f.id for f in pg0.faces if set(pair) <= set(f.edge_ids()))
        out.append(pg0.with_external_face(f))
    return g, out


def test_nested_blobs_demanding_sets_and_cost():
    g, embeddings = blob_faces()
    for pg in embeddings:
        ds = cycles.demanding_sets(pg)
        got = {BLOB_NAMES.get(vertex_set(g, r.edges)) for r in ds.d_set}
        assert got == {"A1", "A2", "A3", "hexA", "B1", "B2"}
        flex_f = sum(g.flexibility(e) for e in pg.external_boundary_edges())
        predicted = len(ds.d_set) + 4 - min(4, len(ds.d_f) + flex_f)
        cost, _ = oracle.flow_min_bends(pg)
        assert predicted == cost
    costs = sorted(oracle.flow_min_bends(pg)[0] for pg in embeddings)
    assert costs == [7, 7, 9]


def test_nested_blobs_genealogy():
    """A cycle's genealogical tree is its subtree in the inclusion tree:
    ring7A's and ring9B's at every reference face where each is a member."""
    g = nested_blobs()
    want = {
        "ring7A": {"hexA": "ring7A", "collar2": "hexA", "collar1": "collar2",
                   "ring9A": "collar1", "A1": "ring9A", "A2": "ring9A",
                   "A3": "ring9A"},
        "ring9B": {"B1": "ring9B", "B2": "ring9B", "B3": "ring9B"},
    }
    seen = Counter()
    for pg in reference_faces(g):
        tree = cycles.inclusion_tree(pg)
        recs = tree.records
        name = lambda cid: BLOB_NAMES.get(vertex_set(g, recs[cid].edges))
        for top in tree.nodes:
            if name(top) not in want:
                continue
            seen[name(top)] += 1
            got, stack = {}, [top]
            while stack:
                for c in tree.children[stack.pop()]:
                    got[name(c)] = name(tree.parent[c])
                    stack.append(c)
            assert got == want[name(top)]
    assert seen["ring7A"] > 0 and seen["ring9B"] > 0


def test_nested_blobs_color_patterns():
    """One fixture hits every coloring shape at once: all-green demanding
    leaves, an all-green non-demanding ring, green/red collars, an orange
    path from a flexible edge, and an insulated demanding hexagon."""
    g = nested_blobs()
    ref = reference(embed(g))
    tree = cycles.inclusion_tree(ref)
    fx = cycles.fx_counts(tree)
    cycles.color_3_extrovert(tree, fx)
    cycles.color_3_introvert(tree, fx)
    seen = {}
    for r in tree.records:
        nm = BLOB_NAMES.get(vertex_set(g, r.edges))
        if nm and r.colors is not None:
            seen[(nm, r.kind)] = (tuple(sorted(r.colors)), r.demanding)
    greens = ("green", "green", "green")
    for nm in ("A1", "A2", "A3", "B1", "B2"):
        matches = [v for (n, _), v in seen.items() if n == nm]
        assert matches and all(v == (greens, True) for v in matches)
    assert all(seen[k] == (greens, True) for k in seen if k[0] == "hexA")
    # all three contour paths green, yet not demanding: the ring sees the
    # triangles' green paths inside its own
    assert seen[("ring9A", "introvert")] == (greens, False)
    for nm in ("collar1", "collar2", "ring7A"):
        matches = [v for (n, _), v in seen.items() if n == nm]
        assert matches
        assert all(v == (("green", "green", "red"), False) for v in matches)
    assert seen[("ring9B", "extrovert")] \
        == (("green", "green", "orange"), False)
    assert seen[("B3", "extrovert")] == (("orange", "red", "red"), False)


# ---------------------------------------------------------------------------
# partner coloring patterns on the small fixtures


def colored_partners(g, ext_verts):
    pg = ext_on_vertices(g, ext_verts)
    tree = cycles.inclusion_tree(pg)
    fx = cycles.fx_counts(tree)
    cycles.color_3_extrovert(tree, fx)
    cycles.color_3_introvert(tree, fx)

    def pair(verts):
        c = next(r for r in tree.records
                 if r.kind == "extrovert" and not r.degenerate
                 and vertex_set(g, r.edges) == frozenset(verts))
        return c, tree.records[c.phi_partner]

    return pair


def test_partner_colors_on_sibling_triangles():
    g = sibling_fixture()
    pair = colored_partners(g, {8, 9, 10, 11})
    t2, phi_t2 = pair({0, 1, 2})
    assert t2.colors == ("green",) * 3 and t2.demanding is True
    assert phi_t2.kind == "introvert"
    assert tuple(sorted(phi_t2.colors)) == ("green", "red", "red")
    assert phi_t2.demanding is False

    flexed = Graph(12, g.edges, {g.edge_id(3, 4): 2})
    pair = colored_partners(flexed, {8, 9, 10, 11})
    t2, phi_t2 = pair({0, 1, 2})
    t3, phi_t3 = pair({3, 4, 5})
    # the flexible edge sits on T3 itself and on one contour path of
    # phi(T2); T2 and phi(T3) cannot see it
    assert tuple(sorted(phi_t2.colors)) == ("orange", "red", "red")
    assert tuple(sorted(t3.colors)) == ("orange", "red", "red")
    assert t3.demanding is False
    assert t2.colors == ("green",) * 3 and t2.demanding is True
    assert tuple(sorted(phi_t3.colors)) == ("green", "red", "red")


def test_partner_flexibility_arithmetic():
    """A partner path is orange exactly when it carries a flexible edge:
    its count is what its face has left after the extrovert path on that
    face and the two legs they share."""
    g0 = truncated_prism()
    eid = g0.edge_id
    g = Graph(8, g0.edges, {eid(5, 6): 2, eid(5, 2): 1, eid(0, 3): 3})
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    fx = cycles.fx_counts(tree)
    cycles.color_3_extrovert(tree, fx)
    cycles.color_3_introvert(tree, fx)
    recs = tree.records

    pent = next(c for c in tree.nodes if len(tree.records[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.records[c].edges) == 3)
    phi_p = recs[recs[pent].phi_partner]
    assert phi_p.colors == ("green",) * 3 and phi_p.demanding is True

    phi_t = recs[recs[tri].phi_partner]
    assert tuple(sorted(phi_t.colors)) == ("green", "orange", "red")
    assert phi_t.demanding is False
    j = phi_t.colors.index("orange")
    f = phi_t.leg_faces[j]
    trec = tree.records[tri]
    jj = trec.leg_faces.index(f)
    face_flex = sum(1 for e in set(pg.faces[f].edge_ids())
                    if g.flexibility(e) > 0)
    legs_on_f = (trec.legs[jj], trec.legs[(jj + 1) % 3])
    flex_legs = sum(1 for e in legs_on_f if g.flexibility(e) > 0)
    assert face_flex == 3 and fx[(tri, jj)] == 1 and flex_legs == 1
    assert fx[(phi_t.cycle_id, j)] == face_flex - fx[(tri, jj)] - flex_legs


def test_demanding_pair_across_a_shared_edge():
    g = theta_fixture()
    pg = ext_on_vertices(g, {0, 2, 3, 6, 7})
    ds = cycles.demanding_sets(pg)
    got = {vertex_set(g, r.edges) for r in ds.d_set}
    assert got == {frozenset({0, 1, 2, 3, 4, 5}), frozenset({0, 1, 6, 7, 8, 9}),
                   frozenset({10, 11, 12}), frozenset({13, 14, 15})}
    assert {vertex_set(g, r.edges) for r in ds.d_f} \
        == {frozenset({0, 1, 2, 3, 4, 5}), frozenset({0, 1, 6, 7, 8, 9})}
    cost, _ = oracle.flow_min_bends(pg)
    assert cost == len(ds.d_set) + 4 - min(4, len(ds.d_f)) == 6
