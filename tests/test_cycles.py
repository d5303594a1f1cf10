"""Cycle detection, coloring and demanding-set machinery.

The exhaustive searches in orthobend.oracle adjudicate everything the
production code computes via 3-edge-cuts; the min-cost-flow oracle
adjudicates the counting formula itself.
"""

import dataclasses
import gc
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobend import cycles, graph, oracle
from orthobend.errors import NotBiconnected, NotTriconnectedCubic
from orthobend.graph import Graph, PlaneGraph, embed, load_plane_graph
from orthobend.orthorep import subdivide_plane

from corpus import (
    cube, grown, inside_by_flood, k4, nested, nested_blobs, oracle_keys,
    plane_text, prism, production_keys, record_key, ring, sibling_fixture,
    sp_grown, summed, theta, theta_fixture, truncated_prism,
)

CORPUS = grown(7, 20)
CORPUS_NOFLEX = [Graph(g.n, g.edges) for g in CORPUS]
NESTED = [nested(1, 200), nested(2, 400)]

# cubic but not triconnected: two K4s less an edge, joined by two edges
TWO_DIAMONDS = Graph(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                         (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
                         (0, 4), (3, 7)])
# cubic with a bridge: two K4s less an edge, joined by a path through it
BRIDGED = Graph(10, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4),
                     (3, 4), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8),
                     (5, 9), (8, 9), (4, 9)])
# biconnected, with 2-edge-cuts: gadgets on rings, thetas, K4 and the prism
SP_CORPUS = sp_grown(7, 10)
# 3-sums: separating 3-edge-cuts with two non-trivial sides, which
# truncation never makes
SUMS = summed(5, 8)
# a 3-sum where two demanding records of cuts with face 5 as a cut face,
# 3-introvert at the default root, meet at face 5 and so leave D there
SUM16 = Graph(16, [(1, 2), (2, 0), (4, 5), (5, 6), (1, 5), (2, 6), (3, 4),
                   (7, 0), (7, 3), (8, 9), (8, 10), (9, 10), (6, 9), (3, 8),
                   (7, 10), (11, 12), (11, 13), (12, 13), (14, 11), (15, 12),
                   (14, 15), (0, 15), (1, 13), (4, 14)])


def all_faces(g):
    pg0 = embed(g)
    return [pg0.with_external_face(f) for f in range(len(pg0.faces))]


def records(pg):
    """The non-degenerate 3-cycle records of pg, two per separating cut."""
    return cycles.inclusion_tree(pg).records


def all_records(pg):
    """Every 3-extrovert and 3-introvert cycle of pg that is built: the
    separating cuts' records and the degenerate 3-extrovert cycles round
    external vertices. Nothing builds the degenerate 3-introvert cycles
    round internal vertices."""
    return records(pg) + [r for r in cycles.extrovert_cycles(pg)
                          if r.degenerate]


def built(oracle_records):
    """The oracle's records of the cycles all_records builds: all but the
    degenerate 3-introvert ones."""
    return [r for r in oracle_records
            if r["kind"] == "extrovert" or not r["degenerate"]]


def colored_tree(pg):
    """pg's inclusion tree with its records colored."""
    tree = cycles.inclusion_tree(pg)
    fx = cycles.fx_counts(tree)
    cycles.color_3_extrovert(tree, fx)
    cycles.color_3_introvert(tree, fx)
    return tree


def two_extrovert(pg):
    return [r for r in cycles.extrovert_cycles(pg) if len(r.legs) == 2]


def external_edges(pg):
    return set(pg.faces[pg.external_face].eids)


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


# ---------------------------------------------------------------------------
# detection


@pytest.mark.parametrize("builder", [k4, prism, cube])
def test_three_cycle_detection_matches_exhaustive_search(builder):
    for pg in all_faces(builder()):
        want = oracle_keys(built(oracle.three_extrovert(pg)
                                 + oracle.three_introvert(pg)))
        got = production_keys(all_records(pg))
        assert got == want


def test_three_cycle_detection_on_grown_corpus():
    for g in CORPUS:
        for pg in all_faces(g):
            want = oracle_keys(built(r for r in oracle.cycle_records(pg)
                                     if r["k"] == 3))
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
    for g, witness in ((TWO_DIAMONDS, r"edges 10 and 11 both join faces"),
                       (BRIDGED, r"edge 14 has face \d+ on both sides")):
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
            assert frozenset(d >> 1 for d in walked) == r.edges
            assert len(walked) == len(r.edges)
            # the path holding the smallest dart comes last
            assert min(walked) in r.contour_paths[-1]
            far = {u if v in r.vertices else v
                   for leg in r.legs for u, v in [g.edges[leg]]}
            assert r.degenerate == (len(far) == 1)


@pytest.mark.parametrize("g", NESTED, ids=lambda g: f"n{g.n}")
def test_records_on_deeply_nested_graphs(g):
    """Every record checked from scratch, far beyond the oracle's reach:
    its inside by a plain flood, its sides dart by dart, its walk."""
    pg0 = embed(g)
    for pg in (pg0, reference(pg0)):
        for r in all_records(pg):
            inside = inside_by_flood(pg, r)
            assert pg.external_face not in inside
            darts = [d for path in r.contour_paths for d in path]
            for j, path in enumerate(r.contour_paths):
                assert pg.dart_tail(path[0]) == r.leg_vertices[j]
                assert r.leg_vertices[j] in g.edges[r.legs[j]]
                for d in path:
                    left = pg.dart_face[d]
                    right = pg.dart_face[d ^ 1]
                    assert left in inside
                    assert right not in inside
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


def test_extrovert_cycles_flood_no_side():
    """Which side of a cut is extrovert is read off a spanning tree, not
    flooded: on nested(1, 1600), listing its 802 extrovert cycles reads
    no face's dual neighbour list; a flood per cut reads them about
    1.9 million times there."""
    pg = embed(nested(1, 1600))
    pg.face_index = counted = CountingList(pg.face_index)
    assert len(cycles.extrovert_cycles(pg)) == 802
    assert counted.reads == 0


def test_separating_cuts_and_facial_cycles_match_the_oracle():
    """The face index lists each separating dual triangle once, l1 f|g,
    l2 g|h and l3 h|f, and extrovert_cycles has the degenerate cycle round
    each external vertex v, its legs meeting at v; both refereed by the
    brute dual-triangle search, and the degenerate cycles on the small
    graphs by the simple-cycle search."""
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
            facial = [r for r in cycles.extrovert_cycles(pg)
                      if r.degenerate]
            meet = {frozenset(r.legs): set.intersection(
                        *(set(pg.edge(e)) for e in r.legs)) for r in facial}
            outer = set(pg.faces[pg.external_face].tails)
            assert meet == {cut: {v} for cut, v in apex.items()
                            if v in outer}
            if g.n <= 16:
                want = [r for r in oracle.three_extrovert(pg)
                        if r["degenerate"]]
                assert production_keys(facial) == oracle_keys(want)


def test_dual_triangles_list_each_separating_cut_once_by_its_smallest_face():
    """dual_triangles lists each separating dual triangle of the brute
    search, the ones whose cut edges share no vertex, once, as (l1, l2,
    l3) over faces f < g < h with l1 f|g, l2 g|h and l3 h|f, in order of
    f: at every face of CORPUS and on NESTED."""
    seen = 0
    for pg in [pg for g in CORPUS for pg in all_faces(g)] \
            + [embed(g) for g in NESTED]:
        got = cycles.dual_triangles(pg)
        want = {frozenset(cut) for cut, _ in oracle.all_dual_triangles(pg)
                if oracle.facial_apex(pg, cut) is None}
        seen += len(want)
        cuts = [frozenset(cut) for cut, _ in got]
        assert len(cuts) == len(want) and set(cuts) == want
        for (l1, l2, l3), (f, g, h) in got:
            assert f < g < h
            assert set(pg.faces_of_edge(l1)) == {f, g}
            assert set(pg.faces_of_edge(l2)) == {g, h}
            assert set(pg.faces_of_edge(l3)) == {h, f}
        smallest = [f for _, (f, _, _) in got]
        assert smallest == sorted(smallest)
    assert seen > 500


def test_demanding_sets_build_no_facial_record(monkeypatch):
    """Two records per separating cut, built once for the embedding, and
    none round a vertex in the answer at every face of a graph grown like
    the benchmark's every-face queries; nothing but the per-cut builder
    builds a record."""
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
    views = all_faces(nested(1, 60))
    separating = sum(1 for cut, _ in oracle.all_dual_triangles(views[0])
                     if oracle.facial_apex(views[0], cut) is None)
    assert separating > 0
    for pg in views:
        ds = cycles.demanding_sets(pg)
        assert ds.d_set
        assert all(r.cycle_id < 2 * separating for r in ds.d_set)
        assert not any(r.degenerate for r in ds.d_set + built)
    assert [r.cycle_id for r in built] == list(range(2 * separating))


def separating_sides(pg):
    """Per separating cut, by the oracle, its cut faces and the faces on
    each side, flooded in the dual with the cut faces taken out."""
    out = []
    for cut, tri in oracle.all_dual_triangles(pg):
        if oracle.facial_apex(pg, cut) is not None:
            continue
        sides = []
        for f in range(len(pg.faces)):
            if f in tri or any(f in side for side in sides):
                continue
            side, stack = {f}, [f]
            while stack:
                for e in pg.faces[stack.pop()].edge_ids():
                    for g in pg.faces_of_edge(e):
                        if g not in side and g not in tri:
                            side.add(g)
                            stack.append(g)
            sides.append(side)
        assert len(sides) == 2
        out.append((set(tri), sides))
    return out


def default_root(cuts, pg):
    """The lowest face on no separating triangle, by the oracle."""
    return min(set(range(len(pg.faces)))
               - {f for tri, _ in cuts for f in tri})


def test_demanding_sets_check_the_class_and_root_the_records_once(
        monkeypatch):
    """Per query at every face of CORPUS: one class check, in
    dual_triangles. The embedding's first query, at face 0, makes one
    view, at the default root r0, whose inclusion tree lists the cuts
    once more and builds two records per separating cut there; every
    query, the first too, then builds one record per member of its D whose
    inside, flooded at its face, holds r0: the demanding cycles it turns
    from 3-introvert at r0 to 3-extrovert, and no others."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cycles, "dual_triangles", counted(
        "dual_triangles", cycles.dual_triangles))
    monkeypatch.setattr(PlaneGraph, "with_external_face", counted(
        "with_external_face", PlaneGraph.with_external_face))
    monkeypatch.setattr(cycles.CycleRecord, "__init__", counted(
        "CycleRecord", cycles.CycleRecord.__init__))
    turned = 0
    for g in CORPUS:
        views = all_faces(g)
        cuts = separating_sides(views[0])
        r0 = default_root(cuts, views[0])
        for pg in views:
            f = pg.external_face
            calls.clear()
            ds = cycles.demanding_sets(pg)
            assert ds.reference_face == r0
            built = sum(r0 in inside_by_flood(pg, r) for r in ds.d_set)
            if f == 0:
                assert calls == Counter(
                    dual_triangles=2, with_external_face=1,
                    CycleRecord=2 * len(cuts) + built)
            else:
                assert calls == Counter(dual_triangles=1, CycleRecord=built)
            turned += built
    assert turned > 0


def demanding_key(ds):
    """What demanding_sets answers: each D record's cycle id, kind, spans,
    leg faces, phi partner, colors and demanding flag, then D_f's ids."""
    return ([(r.cycle_id, r.kind, r.spans, r.leg_faces, r.phi_partner,
              r.colors, r.demanding) for r in ds.d_set],
            [r.cycle_id for r in ds.d_f])


def test_demanding_sets_at_every_face_equal_those_of_a_fresh_load(
        monkeypatch):
    """Every with_external_face view of one embedding shares its cuts,
    checked walks and kept colored tree, and gets what a text loaded
    afresh at that face gets, on CORPUS, on more flexible grown graphs and
    on a nested one. The views are queried in ascending, descending and
    shuffled face order, so any face may be the first; the tree kept at
    the end is the default root's."""
    for g in CORPUS + grown(13, 8, 6, flex_prob=0.6) + [nested(1, 60)]:
        pg = embed(g)
        faces = list(range(len(pg.faces)))
        fresh = []
        for f in faces:
            monkeypatch.setattr(graph, "_last", None)
            ds = cycles.demanding_sets(load_plane_graph(plane_text(pg, f)))
            fresh.append((demanding_key(ds), ds.reference_face))
        shuffled = faces[:]
        random.Random(len(faces)).shuffle(shuffled)
        for order in (faces, faces[::-1], shuffled):
            pg0 = embed(g)
            for f in order:
                ds = cycles.demanding_sets(pg0.with_external_face(f))
                assert (demanding_key(ds), ds.reference_face) == fresh[f]
            assert "cut_walks" in pg0.tables
            at, r0 = pg0.tables["default_root"]
            assert pg0.tables["colored"][:2] == (r0, at) and not at[r0]


def rooted_demanding(pg):
    """D and D_f as sets of (edges, legs), computed as every query once
    did: the inclusion tree at pg's own reference face, its records
    colored there, and the i_f / drop / D scan over its nodes' partners.
    A face on no separating triangle roots its own tree."""
    tree = colored_tree(pg)
    recs, ext = tree.records, pg.external_face
    partners = (recs[recs[c].phi_partner] for c in tree.nodes)
    i_f = {r.cycle_id for r in partners
           if r.demanding and ext in r.leg_faces}
    drop = i_f if len(i_f) >= 2 else set()
    d_set = [r for r in recs if r.kind == "extrovert" and r.demanding
             and r.cycle_id not in drop]
    d_f = [r for r in d_set if ext in r.leg_faces]
    return cycle_set(d_set), cycle_set(d_f)


def cycle_set(records):
    return {(r.edges, frozenset(r.legs)) for r in records}


def test_demanding_sets_equal_those_of_a_tree_rooted_at_each_face():
    """At every face of CORPUS, of more flexible grown graphs and of two
    nested ones, whose owner chains run up to 26 and 96 cuts long,
    demanding_sets, which reads the default root's colored records and
    turns those the face changes, gives the D and D_f of rooted_demanding,
    whose tree is rooted at the face itself when that is on no separating
    triangle. The views of one embedding are queried in ascending,
    descending and shuffled face order, so each face is met both before
    and after the others have turned the shared records."""
    own_roots = 0
    for g in CORPUS + grown(13, 8, 6, flex_prob=0.6) + [nested(1, 60),
                                                          nested(2, 200),
                                                          SUM16] + SUMS:
        faces = range(len(embed(g).faces))
        want = [rooted_demanding(pg) for pg in all_faces(g)]
        shuffled = list(faces)
        random.Random(len(shuffled)).shuffle(shuffled)
        for order in (faces, faces[::-1], shuffled):
            pg0 = embed(g)
            for f in order:
                ds = cycles.demanding_sets(pg0.with_external_face(f))
                assert (cycle_set(ds.d_set), cycle_set(ds.d_f)) == want[f]
        r0 = ds.reference_face
        own_roots += sum(is_reference(pg0.with_external_face(f))
                         for f in faces if f != r0)
    assert own_roots > 0


def test_a_query_rooted_at_the_default_root_reuses_its_tree_and_colors(
        monkeypatch):
    """Through load_plane_graph, the embedding's first query builds the
    inclusion tree, the spanning tree, the flexible counts and both
    colorings once, at the default root r0, and no later query builds any
    of them: not at faces on a separating triangle, not at r0 and not at
    face 2, which is on none and once rooted its own tree. Every query
    reports r0 as its reference face, and the kept tree stays r0's."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("inclusion_tree", "_spanning_tree", "fx_counts",
                 "color_3_extrovert", "color_3_introvert"):
        monkeypatch.setattr(cycles, name, counted(name, getattr(cycles, name)))
    pg0 = embed(nested(1, 60))
    monkeypatch.setattr(graph, "_last", None)
    first = load_plane_graph(plane_text(pg0, 0))
    ds = cycles.demanding_sets(first)
    at, r0 = first.tables["default_root"]
    assert at[0] and r0 == 1 and ds.reference_face == r0
    assert calls == Counter(inclusion_tree=1, _spanning_tree=1, fx_counts=1,
                            color_3_extrovert=1, color_3_introvert=1)
    for f in (3, r0, 5, 2):  # two faces on a separating triangle, r0, and 2
        assert bool(at[f]) != (f in (r0, 2))
        calls.clear()
        ds = cycles.demanding_sets(load_plane_graph(plane_text(pg0, f)))
        assert ds.reference_face == r0 and not calls
    assert first.tables["colored"][0] == r0


@pytest.mark.parametrize("with_rotation", [True, False])
def test_every_face_of_one_text_traces_and_walks_once(monkeypatch,
                                                     with_rotation):
    """Solving every face of one text in turn, through load_plane_graph
    and demanding_sets, traces the faces once, splits the text into lines
    once and walks each separating cut once, while each query still lists
    the cuts and checks the class, in dual_triangles; the first lists them
    again for its inclusion tree."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    pg0 = embed(nested(1, 60))
    texts = [plane_text(pg0, f) if with_rotation
             else graph.dump_graph(pg0.graph) + f"external: {f}\n"
             for f in range(len(pg0.faces))]
    separating = len(cycles.dual_triangles(pg0))
    assert separating > 0
    monkeypatch.setattr(graph, "_last", None)
    counted(graph, "trace_faces")
    counted(graph, "_lines")
    for name in ("_cut_arcs", "dual_triangles"):
        counted(cycles, name)
    for f, text in enumerate(texts):
        pg = load_plane_graph(text)
        assert pg.external_face == f
        cycles.demanding_sets(pg)
    assert calls == Counter(trace_faces=1, _lines=1, _cut_arcs=separating,
                            dual_triangles=len(texts) + 1)


# ---------------------------------------------------------------------------
# 2-extrovert cycles


def test_no_two_extrovert_cycles_in_triconnected_graphs():
    for builder in (prism, cube, theta_fixture):
        for pg in all_faces(builder()):
            assert two_extrovert(pg) == []


def test_two_extrovert_from_external_subdivision():
    """Splitting one external edge creates exactly one 2-extrovert cycle:
    the boundary of everything except the segments, with the two end
    segments as legs however often the edge is split."""
    for builder in (prism, cube):
        pg = embed(builder())
        for e in sorted(external_edges(pg)):
            for count in (1, 2, 3):
                real, _, segs = subdivide_plane(pg, {e: count})
                two = two_extrovert(real)
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
    internal = sorted(set(range(pg.m)) - external_edges(pg))[0]
    sub, _, _ = subdivide_plane(pg, {internal: 1})
    assert two_extrovert(sub) == []


def test_plain_quadrilateral_has_no_two_extrovert_cycle():
    pg = embed(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert two_extrovert(pg) == []


# ---------------------------------------------------------------------------
# 2-edge-cuts


def pieces(g, removed):
    """How many connected pieces g falls into without the edges removed."""
    root = list(range(g.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    count = g.n
    for e, (u, v) in enumerate(g.edges):
        if e not in removed and (a := find(u)) != (b := find(v)):
            root[a] = b
            count -= 1
    return count


def check_two_cuts(g):
    """two_cuts' pairs are the edge pairs whose removal disconnects g, by
    trying every pair. Each group's edges come in the order its first
    face's boundary meets them and cut g into as many pieces as there are
    edges, one cycle of the cactus of 2-edge-cuts."""
    pg = embed(g)
    groups = cycles.two_cuts(pg)
    got = {frozenset(p) for es in groups.values()
           for p in combinations(es, 2)}
    assert got == {frozenset(p) for p in combinations(range(len(g.edges)), 2)
                   if pieces(g, p) > 1}
    for (f, h), es in groups.items():
        assert f < h and len(es) >= 2
        assert all(set(pg.faces_of_edge(e)) == {f, h} for e in es)
        at = [pg.faces[f].eids.index(e) for e in es]
        assert at == sorted(at)
        assert pieces(g, set(es)) == len(es)


def test_two_cuts_are_the_brute_force_cuts():
    for g in CORPUS + SP_CORPUS:
        check_two_cuts(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_two_cuts_of_drawn_gadget_graphs_are_the_brute_force_cuts(seed):
    (g,) = sp_grown(seed, 1)
    check_two_cuts(g)


def test_two_cuts_of_a_ring_is_one_group_in_cyclic_order():
    for n in (3, 4, 8):
        (es,) = cycles.two_cuts(embed(ring(n))).values()
        assert sorted(es) == list(range(n))
        steps = {(b - a) % n for a, b in zip(es, es[1:] + es[:1])}
        assert steps in ({1}, {n - 1})


def test_two_cuts_of_theta_2_2_2_are_its_three_paths():
    cuts = cycles.two_cuts(embed(theta(2, 2, 2)))
    assert sorted(map(sorted, cuts.values())) == [[0, 1], [2, 3], [4, 5]]


def test_two_cuts_of_theta_1_2_2_leave_the_direct_edge_out():
    # the direct edge 0 between the poles is in no cut
    cuts = cycles.two_cuts(embed(theta(1, 2, 2)))
    assert sorted(map(sorted, cuts.values())) == [[1, 2], [3, 4]]


def test_two_cuts_are_empty_on_k4():
    assert cycles.two_cuts(embed(k4())) == {}


def test_two_cuts_are_empty_on_triconnected_graphs():
    for g in [prism(), cube()] + CORPUS:
        assert cycles.two_cuts(embed(g)) == {}


def test_two_cuts_reject_a_bridge():
    for g in (Graph(4, [(0, 1), (1, 2), (2, 3)]),
              Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
              Graph(2, [(0, 1)]), BRIDGED):
        with pytest.raises(NotBiconnected, match=r"edge \d+ is a bridge"):
            cycles.two_cuts(embed(g))


def test_two_cuts_are_the_same_at_every_face():
    for g in SP_CORPUS + [TWO_DIAMONDS]:
        views = all_faces(g)
        want = cycles.two_cuts(views[0])
        for pg in views:
            assert cycles.two_cuts(pg) == want


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


def test_dual_triangles_is_the_class_gate():
    """On a cubic graph with a 2-edge-cut, one with a bridge and a
    subdivided cube, dual_triangles raises inclusion_tree's
    NotTriconnectedCubic, witness and all, and keeps nothing."""
    sub, _, _ = subdivide_plane(embed(cube()), {0: 1})
    for pg, witness in ((embed(TWO_DIAMONDS), "edges 10 and 11 both join"),
                        (embed(BRIDGED), r"edge 14 has face \d+ on both"),
                        (sub, "vertex 8 has degree 2")):
        with pytest.raises(NotTriconnectedCubic, match=witness) as gate:
            cycles.dual_triangles(pg)
        assert pg.tables == {}
        with pytest.raises(NotTriconnectedCubic) as tree:
            cycles.inclusion_tree(pg)
        assert str(gate.value) == str(tree.value)
        assert pg.tables == {}


def test_queries_leave_no_reference_cycle(monkeypatch):
    """With the cyclic collector off, a cold load, its first query, an
    inclusion tree and a query on another view leave nothing that only
    the collector frees: what the embedding keeps in its tables holds no
    PlaneGraph, so no view and the tables it shares point at each other."""
    monkeypatch.setattr(graph, "_last", None)
    text = graph.dump_graph(nested(1, 200))
    gc.collect()
    gc.disable()
    try:
        pg = load_plane_graph(text)
        ds = cycles.demanding_sets(pg)
        tree = cycles.inclusion_tree(pg)
        later = cycles.demanding_sets(pg.with_external_face(3))
        del pg, ds, tree, later
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    child = [d >> 1 for d in trec.contour_paths[trec.leg_faces.index(f)]]
    own = next(d >> 1 for d in prec.contour_paths[j] if d >> 1 not in child)
    g2 = Graph(8, g0.edges, {own: 2, child[0]: 3})
    pg2 = ext_on_vertices(g2, {2, 3, 4})
    fx2 = cycles.fx_counts(cycles.inclusion_tree(pg2))
    assert fx2[(pent, j)] == 2


def test_flexible_edge_counts_match_a_count_along_the_paths():
    """fx_counts reads each path's count off per-face prefix sums; at
    every face of seeded grown graphs, it lists exactly the paths with a
    flexible edge on their darts, with their number. The records hold
    spans: no field stores the paths, their edges, vertices or leg
    vertices, the inside faces or a flag that repeats the kind."""
    names = {f.name for f in dataclasses.fields(cycles.CycleRecord)}
    assert not names & {"contour_paths", "edges", "vertices", "leg_vertices",
                        "inside_faces", "reverse"}
    counted = 0
    for seed in (1, 2, 3):
        for g in grown(seed, 20, 6, 0.3):
            for pg in all_faces(g):
                tree = cycles.inclusion_tree(pg)
                want = {(r.cycle_id, j): sum(g.flexibility(d >> 1) > 0
                                             for d in path)
                        for r in tree.records
                        for j, path in enumerate(r.contour_paths)}
                assert cycles.fx_counts(tree) == {
                    key: v for key, v in want.items() if v > 0}
                counted += sum(v > 0 for v in want.values())
    assert counted > 0


def test_flexible_edge_sums_are_built_once_per_embedding(monkeypatch):
    """fx_counts sums each face's flexible edges on the first query of an
    embedding and reads those sums at every other face; with no flexible
    edge it sums no face."""
    calls = Counter()
    accumulate = cycles.accumulate

    def counted(*args, **kwargs):
        calls["accumulate"] += 1
        return accumulate(*args, **kwargs)
    monkeypatch.setattr(cycles, "accumulate", counted)
    g = next(g for g in CORPUS if g.flex and g.n > 4)
    for g in (g, Graph(g.n, g.edges)):
        calls.clear()
        views = all_faces(g)
        for pg in views:
            cycles.demanding_sets(pg)
        assert calls["accumulate"] == (len(views) if g.flex else 0)


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


def test_demanding_records_that_meet_at_the_external_face_leave_d():
    """The drop rule: at face 5 of SUM16's embedding, cuts 1 and 2 both
    have face 5 as a cut face, and their records round side B, 3-introvert
    and demanding at the default root, turn 3-extrovert there; they meet
    at face 5, so both leave D. At every face D and D_f are the brute
    search's."""
    pg0 = embed(SUM16)
    ref = pg0.with_external_face(cycles.demanding_sets(pg0).reference_face)
    tree = colored_tree(ref)
    for c in (1, 2):
        assert 5 in cycles.dual_triangles(pg0)[c][1]
        r = tree.records[2 * c + 1]
        assert r.kind == "introvert" and r.demanding
    ds = cycles.demanding_sets(pg0.with_external_face(5))
    assert not {3, 5} & {r.cycle_id for r in ds.d_set}
    for pg in all_faces(SUM16):
        ds = cycles.demanding_sets(pg)
        _, D, Df = oracle.brute_demanding(pg)
        assert cycle_set(ds.d_set) == {(r["edges"], frozenset(r["legs"]))
                                       for r in D}
        assert cycle_set(ds.d_f) == {(r["edges"], frozenset(r["legs"]))
                                     for r in Df}


def full_record_key(r):
    sides = frozenset(zip(r.leg_vertices, r.legs, r.leg_faces,
                          r.contour_paths))
    return (r.kind, r.degenerate, r.edges, sides)


def test_records_at_any_face_are_reference_records_turned_inside_out():
    """Each record of D at any face is its cycle as the face's own tree
    builds it, and the default root's record of the same id turned inside
    out exactly when its inside there holds the face; its colors stay with
    their leg faces and its demanding flag is the root's."""
    turned = 0
    for g in CORPUS:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            own = set(map(full_record_key, records(pg)))
            ref = pg.with_external_face(ds.reference_face)
            at_r0 = colored_tree(ref).records
            for r in ds.d_set:
                r0 = at_r0[r.cycle_id]
                assert full_record_key(r) in own and r.edges == r0.edges
                assert ((r.kind != r0.kind)
                        == (pg.external_face in inside_by_flood(ref, r0)))
                assert r.demanding == r0.demanding
                assert dict(zip(r.leg_faces, r.colors)) \
                    == dict(zip(r0.leg_faces, r0.colors))
                turned += r.kind != r0.kind
    assert turned > 0


def test_cycle_count_formula_is_brute_cost_formula_and_bounds_the_flow():
    """The count demanding_sets gives is oracle.brute_cost_formula, the
    contract the solve benchmark's referee applies, at every face: the
    flow optimum when no external edge is flexible, at most that
    otherwise."""
    exact = bounded = 0
    for g in CORPUS + CORPUS_NOFLEX + SUMS:
        for pg in all_faces(g):
            ds = cycles.demanding_sets(pg)
            ext_flex = sum(g.flexibility(e)
                           for e in external_edges(pg))
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
        flex_f = sum(g.flexibility(e) for e in external_edges(pg))
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
    tree = colored_tree(reference(embed(g)))
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
    tree = colored_tree(ext_on_vertices(g, ext_verts))

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
