"""Cycle detection, coloring and demanding-set machinery.

The exhaustive searches in orthobend.oracle adjudicate everything the
production code computes via 3-edge-cuts; the min-cost-flow oracle
adjudicates the counting formula itself.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from orthobend import cycles, oracle
from orthobend.errors import NoTwin, NotReferenceEmbedding
from orthobend.graph import Graph, embed
from orthobend.orthorep import subdivide_plane

from corpus import (
    cube, flatten, grown, k4, nested_blobs, oracle_keys, prism,
    production_keys, record_key, sibling_fixture, theta_fixture,
    truncated_prism,
)

CORPUS = grown(7, 20)
CORPUS_NOFLEX = [Graph(g.n, g.edges) for g in CORPUS]


def all_faces(g):
    pg0 = embed(g)
    return [pg0.with_external_face(f) for f in range(len(pg0.faces))]


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
        got = production_keys(cycles.three_cycle_records(pg))
        assert got == want


def test_three_cycle_detection_on_grown_corpus():
    for g in CORPUS:
        pg = embed(g)
        want = oracle_keys(oracle.three_extrovert(pg)
                           + oracle.three_introvert(pg))
        assert production_keys(cycles.three_cycle_records(pg)) == want


@settings(max_examples=20, deadline=None)
@given(st.integers(0, len(CORPUS) - 1))
def test_partner_pairing_is_an_involution(i):
    pg = embed(CORPUS[i])
    recs = cycles.three_cycle_records(pg)
    by_id = {r.cycle_id: r for r in recs}
    for r in recs:
        if r.kind != "extrovert" or r.degenerate:
            continue
        if pg.external_face in r.leg_faces:
            # legs on the boundary: the flip side is another 3-extrovert
            # cycle, not a partner
            assert r.phi_partner is None
            continue
        partner = by_id[r.phi_partner]
        assert partner.kind == "introvert"
        assert frozenset(partner.legs) == frozenset(r.legs)
        assert partner.phi_partner == r.cycle_id
        assert partner.edges != r.edges


@settings(max_examples=20, deadline=None)
@given(st.integers(0, len(CORPUS) - 1))
def test_record_structure_invariants(i):
    g = CORPUS[i]
    pg = embed(g)
    for r in cycles.three_cycle_records(pg):
        assert len(r.legs) == 3 and len(r.contour_paths) == 3
        # each leg has exactly one endpoint on the cycle
        for leg in r.legs:
            u, v = g.edges[leg]
            assert (u in r.vertices) + (v in r.vertices) == 1
        walked = [d[0] for path in r.contour_paths for d in path]
        assert frozenset(walked) == r.edges and len(walked) == len(r.edges)
        far = {u if v in r.vertices else v
               for leg in r.legs for u, v in [g.edges[leg]]}
        assert r.degenerate == (len(far) == 1)


# ---------------------------------------------------------------------------
# 2-extrovert cycles


def test_no_two_extrovert_cycles_in_triconnected_graphs():
    for builder in (prism, cube, theta_fixture):
        for pg in all_faces(builder()):
            assert cycles.find_2_extrovert(pg) == []


def test_two_extrovert_from_external_subdivision():
    """Splitting one external edge creates exactly one 2-extrovert cycle:
    the boundary of everything except the two half-segments."""
    pg = embed(prism())
    e = sorted(pg.external_boundary_edges())[0]
    real, _, segs = subdivide_plane(pg, {e: 1})
    two = cycles.find_2_extrovert(real)
    assert len(two) == 1
    cyc = two[0]
    assert frozenset(cyc.legs) == frozenset(segs[e])
    f1, f2 = real.faces_of_edge(segs[e][0])
    rim = (set(real.faces[f1].edge_ids()) | set(real.faces[f2].edge_ids()))
    assert cyc.edges == frozenset(rim - set(segs[e]))
    want = {(r["edges"], frozenset(r["legs"]))
            for r in oracle.two_extrovert(real)}
    assert {(cyc.edges, frozenset(cyc.legs))} == want


def test_no_two_extrovert_from_internal_subdivision():
    pg = embed(prism())
    internal = sorted(set(range(pg.m)) - pg.external_boundary_edges())[0]
    sub, _, _ = subdivide_plane(pg, {internal: 1})
    assert cycles.find_2_extrovert(sub) == []


def test_plain_quadrilateral_has_no_two_extrovert_cycle():
    pg = embed(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert cycles.find_2_extrovert(pg) == []


# ---------------------------------------------------------------------------
# reference embeddings


def test_reference_embedding_detection():
    pg0 = embed(prism())
    flags = {f: cycles.is_reference_embedding(pg0.with_external_face(f))
             for f in range(len(pg0.faces))}
    # exactly the two triangular faces qualify
    tri = {f for f in flags
           if len(set(pg0.faces[f].edge_ids())) == 3}
    assert {f for f, ok in flags.items() if ok} == tri
    # no non-degenerate 3-extrovert cycle at all: every face qualifies
    for pg in all_faces(k4()):
        assert cycles.is_reference_embedding(pg)


def test_compute_reference_embedding_keeps_valid_input():
    pg0 = embed(prism())
    good = next(f for f in range(len(pg0.faces))
                if cycles.is_reference_embedding(pg0.with_external_face(f)))
    ref = cycles.compute_reference_embedding(pg0.with_external_face(good))
    assert ref.external_face == good
    bad = next(f for f in range(len(pg0.faces))
               if not cycles.is_reference_embedding(pg0.with_external_face(f)))
    ref2 = cycles.compute_reference_embedding(pg0.with_external_face(bad))
    assert cycles.is_reference_embedding(ref2)


def test_inclusion_tree_shapes():
    # prism: one non-degenerate cycle hanging off the root
    ref = cycles.compute_reference_embedding(embed(prism()))
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
    tops = {vertex_set(g, tree.by_id[c].edges)
            for c in tree.children[tree.root]}
    assert frozenset({0, 1, 2}) in tops and frozenset({3, 4, 5}) in tops

    # truncated prism: a two-link chain
    g = truncated_prism()
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    pent = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 3)
    assert tree.parent[pent] == tree.root and tree.parent[tri] == pent


def ext_on_vertices(g, verts):
    pg0 = embed(g)
    f = next(f for f in range(len(pg0.faces))
             if vertex_set(g, set(pg0.faces[f].edge_ids())) == frozenset(verts))
    return pg0.with_external_face(f)


def test_inclusion_tree_rejects_non_reference_embedding():
    pg0 = embed(prism())
    bad = next(f for f in range(len(pg0.faces))
               if not cycles.is_reference_embedding(pg0.with_external_face(f)))
    with pytest.raises(NotReferenceEmbedding):
        cycles.inclusion_tree(pg0.with_external_face(bad))


# ---------------------------------------------------------------------------
# contour-path representations


def test_contour_paths_share_child_edges_by_pointer():
    g = truncated_prism()
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    reps = cycles.contour_paths_explicit(tree)
    pent = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 3)
    pointered = [j for j in range(3)
                 if any(it[0] == "p" for it in reps[(pent, j)])]
    assert len(pointered) == 2
    for j in pointered:
        items = reps[(pent, j)]
        assert len(items) == 2
        kinds = sorted(it[0] for it in items)
        assert kinds == ["e", "p"]
        ptr = next(it for it in items if it[0] == "p")
        assert ptr[1] == tri
    # triangle edges are stored once, under the triangle itself
    tri_stored = {it[1] for j in range(3) for it in reps[(tri, j)]}
    assert tri_stored == set(tree.by_id[tri].edges)


def test_contour_paths_flatten_back_to_the_walk():
    for g in CORPUS:
        ref = cycles.compute_reference_embedding(embed(g))
        tree = cycles.inclusion_tree(ref)
        reps = cycles.contour_paths_explicit(tree)
        for cid in tree.nodes:
            rec = tree.by_id[cid]
            for j, path in enumerate(rec.contour_paths):
                assert flatten(reps, (cid, j)) == [d[0] for d in path]


def test_flexible_edge_counts_accumulate_through_pointers():
    g0 = truncated_prism()
    eid = g0.edge_id
    g = Graph(8, g0.edges, {eid(5, 6): 2, eid(5, 2): 1, eid(0, 3): 3})
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    fx = cycles.fx_counts(tree)
    pent = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 3)
    assert sorted(fx[(tri, j)] for j in range(3)) == [0, 0, 1]
    assert sorted(fx[(pent, j)] for j in range(3)) == [0, 0, 1]

    # flex on a parent's own edge and on the child path it points to
    # are both visible from the parent
    reps = cycles.contour_paths_explicit(tree)
    j = next(j for j in range(3)
             if any(it[0] == "p" for it in reps[(pent, j)]))
    own = next(it[1] for it in reps[(pent, j)] if it[0] == "e")
    ptr = next(it for it in reps[(pent, j)] if it[0] == "p")
    child_edge = flatten(reps, (ptr[1], ptr[2]))[0]
    g2 = Graph(8, g0.edges, {own: 2, child_edge: 3})
    pg2 = ext_on_vertices(g2, {2, 3, 4})
    tree2 = cycles.inclusion_tree(pg2)
    fx2 = cycles.fx_counts(tree2)
    assert fx2[(pent, j)] == 2


# ---------------------------------------------------------------------------
# coloring


def test_extrovert_coloring_matches_exhaustive_search():
    for g in CORPUS:
        ref = cycles.compute_reference_embedding(embed(g))
        tree = cycles.inclusion_tree(ref)
        cycles.color_3_extrovert(tree)
        want = {}
        for r in oracle.color_records(ref, oracle.three_extrovert(ref)):
            if not r["degenerate"]:
                want[record_key(r["edges"], r["legs"], "extrovert", False)] = \
                    dict(zip(r["leg_faces"], r["colors"]))
        for cid in tree.nodes:
            rec = tree.by_id[cid]
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
    return (r.kind, r.degenerate, r.edges, r.inside_faces, sides)


def test_records_at_any_face_are_reference_records_turned_inside_out():
    """A record is turned inside out exactly when its inside holds the
    external face; its colors stay with their leg faces."""
    for g in CORPUS:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            want = Counter(map(full_record_key,
                               cycles.three_cycle_records(pg)))
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


def test_cycle_count_formula_matches_flow_when_inflexible():
    for g in CORPUS_NOFLEX:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            predicted = len(ds.d_set) + 4 - min(4, len(ds.d_f))
            cost, _ = oracle.flow_min_bends(pg)
            assert predicted == cost


# ---------------------------------------------------------------------------
# twins and covers


def test_twin_pairs_up_cycles_on_the_external_face():
    g = prism()
    pg0 = embed(g)
    quad = next(f for f in range(len(pg0.faces))
                if len(set(pg0.faces[f].edge_ids())) == 4)
    pg = pg0.with_external_face(quad)
    recs = cycles.three_cycle_records(pg)
    t1 = find_record(pg, recs, {0, 1, 2}, "extrovert")
    t2 = cycles.twin(pg, t1, recs)
    assert vertex_set(g, t2.edges) == frozenset({3, 4, 5})
    assert cycles.twin(pg, t2, recs) is t1
    boundary = pg.external_boundary_edges()
    assert boundary <= set(t1.edges) | set(t2.edges) | set(t1.legs)


def test_twin_across_a_shared_contour_path():
    g = theta_fixture()
    pg = ext_on_vertices(g, {0, 2, 3, 6, 7})
    recs = cycles.three_cycle_records(pg)
    c1 = find_record(pg, recs, {0, 1, 2, 3, 4, 5}, "extrovert")
    t = cycles.twin(pg, c1, recs)
    assert vertex_set(g, t.edges) == frozenset({6, 7, 8, 9, 13, 15})


def test_twin_undefined_off_the_boundary_and_for_degenerate_cycles():
    g = truncated_prism()
    pg = ext_on_vertices(g, {2, 3, 4})
    recs = cycles.three_cycle_records(pg)
    tri = find_record(pg, recs, {5, 6, 7}, "extrovert")
    with pytest.raises(NoTwin):
        cycles.twin(pg, tri, recs)
    pg4 = embed(k4())
    degen = next(r for r in cycles.three_cycle_records(pg4)
                 if r.kind == "extrovert" and r.degenerate)
    with pytest.raises(NoTwin):
        cycles.twin(pg4, degen)


def test_cover_for_single_and_paired_families():
    g = prism()
    pg0 = embed(g)
    quad = next(f for f in range(len(pg0.faces))
                if len(set(pg0.faces[f].edge_ids())) == 4)
    pg = pg0.with_external_face(quad)
    recs = cycles.three_cycle_records(pg)
    t1 = find_record(pg, recs, {0, 1, 2}, "extrovert")
    e1, e2 = cycles.intersecting_cover(pg, [t1], recs)
    boundary = pg.external_boundary_edges()
    assert {e1, e2} <= boundary
    assert not set(g.edges[e1]) & set(g.edges[e2])
    assert e1 in t1.edges or e2 in t1.edges

    g = theta_fixture()
    pg = ext_on_vertices(g, {0, 2, 3, 6, 7})
    recs = cycles.three_cycle_records(pg)
    c1 = find_record(pg, recs, {0, 1, 2, 3, 4, 5}, "extrovert")
    c2 = find_record(pg, recs, {0, 1, 6, 7, 8, 9}, "extrovert")
    e1, e2 = cycles.intersecting_cover(pg, [c1, c2], recs)
    for c in (c1, c2):
        assert e1 in c.edges or e2 in c.edges
    assert not set(g.edges[e1]) & set(g.edges[e2])


def test_cover_for_degenerate_and_empty_families():
    g = cube()
    pg = embed(g)
    recs = cycles.three_cycle_records(pg)
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
    g, embeddings = blob_faces()
    pg = embeddings[0]
    recs = cycles.three_cycle_records(pg)
    ring7 = next(r for r in recs if r.kind == "extrovert"
                 and vertex_set(g, r.edges) == frozenset(range(14, 21)))
    tree = cycles.genealogical_tree(pg, ring7, recs)
    name = lambda cid: BLOB_NAMES.get(vertex_set(g, tree.by_id[cid].edges))
    assert sorted(name(c) for c in tree.nodes) \
        == ["A1", "A2", "A3", "collar1", "collar2", "hexA", "ring9A"]
    parent_names = {name(c): ("ring7A" if tree.parent[c] == tree.root
                              else name(tree.parent[c]))
                    for c in tree.nodes}
    assert parent_names == {
        "hexA": "ring7A", "collar2": "hexA", "collar1": "collar2",
        "ring9A": "collar1", "A1": "ring9A", "A2": "ring9A", "A3": "ring9A",
    }

    ring9b = next(r for r in recs if r.kind == "extrovert"
                  and vertex_set(g, r.edges) == frozenset(range(21, 30)))
    tree_b = cycles.genealogical_tree(pg, ring9b, recs)
    assert sorted(BLOB_NAMES.get(vertex_set(g, tree_b.by_id[c].edges))
                  for c in tree_b.nodes) == ["B1", "B2", "B3"]
    assert all(tree_b.parent[c] == tree_b.root for c in tree_b.nodes)


def test_nested_blobs_color_patterns():
    """One fixture hits every coloring shape at once: all-green demanding
    leaves, an all-green non-demanding ring, green/red collars, an orange
    path from a flexible edge, and an insulated demanding hexagon."""
    g = nested_blobs()
    ref = cycles.compute_reference_embedding(embed(g))
    tree = cycles.inclusion_tree(ref)
    reps = cycles.contour_paths_explicit(tree)
    cycles.color_3_extrovert(tree, reps)
    cycles.color_3_introvert(tree, reps)
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
    cycles.color_3_extrovert(tree)
    cycles.color_3_introvert(tree)
    by_id = {r.cycle_id: r for r in tree.records}

    def pair(verts):
        c = next(r for r in tree.records
                 if r.kind == "extrovert" and not r.degenerate
                 and vertex_set(g, r.edges) == frozenset(verts))
        return c, by_id[c.phi_partner]

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
    """A partner path is orange exactly when the face still has flexible
    edges left over after its own path and the shared legs are accounted
    for."""
    g0 = truncated_prism()
    eid = g0.edge_id
    g = Graph(8, g0.edges, {eid(5, 6): 2, eid(5, 2): 1, eid(0, 3): 3})
    pg = ext_on_vertices(g, {2, 3, 4})
    tree = cycles.inclusion_tree(pg)
    reps = cycles.contour_paths_explicit(tree)
    cycles.color_3_extrovert(tree, reps)
    cycles.color_3_introvert(tree, reps)
    fx = cycles.fx_counts(tree, reps)
    by_id = {r.cycle_id: r for r in tree.records}

    pent = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 5)
    tri = next(c for c in tree.nodes if len(tree.by_id[c].edges) == 3)
    phi_p = by_id[tree.by_id[pent].phi_partner]
    assert phi_p.colors == ("green",) * 3 and phi_p.demanding is True

    phi_t = by_id[tree.by_id[tri].phi_partner]
    assert tuple(sorted(phi_t.colors)) == ("green", "orange", "red")
    assert phi_t.demanding is False
    j = phi_t.colors.index("orange")
    f = phi_t.leg_faces[j]
    trec = tree.by_id[tri]
    jj = trec.leg_faces.index(f)
    face_flex = sum(1 for e in set(pg.faces[f].edge_ids())
                    if g.flexibility(e) > 0)
    legs_on_f = (trec.legs[jj], trec.legs[(jj + 1) % 3])
    flex_legs = sum(1 for e in legs_on_f if g.flexibility(e) > 0)
    assert face_flex == 3 and fx[(tri, jj)] == 1 and flex_legs == 1


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
