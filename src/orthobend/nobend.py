"""Rectilinear representations of good plane graphs with chosen corners.

A biconnected plane 3-graph is "good" when (i) its external cycle carries
at least four degree-2 vertices, (ii) every 2-extrovert cycle carries at
least two and (iii) every 3-extrovert cycle at least one. Good graphs are
exactly the ones drawable with zero bends, and this module produces such
a representation once four degree-2 external vertices are designated as
corners. Both conditions on cycles, and the bad cycles below, read the
2- and 3-extrovert cycles from cycles.extrovert_cycles, which takes any
biconnected plane 3-graph, chains of degree-2 vertices included, and
raises NotBiconnected on a bridge. Its records carry everything the
collapse needs: the legs and their vertices, the contour paths with the
leg face each borders, and the inside faces, whose boundary edges are
the region a cycle encloses. no_bend_rep lists them once per graph it
draws, the input's list serving the conditions too.

The construction collapses every maximal bad cycle (one that misses the
designated corners it would need, and whose inside lies in no other bad
cycle's inside) into a supernode, draws the coarse graph with all faces
rectangular, and recurses into the collapsed regions. A region with k
legs takes its leg vertices plus 4 - k fresh degree-2 picks as its
designated corners, and each contour path is one side of it. Child
representations are stitched back by splitting the 270 angle a region
shows its surroundings at each leg vertex into two seam angles, one in
each side's leg face.

One planner chooses the picks and the seams for k = 2 and 3. Side j runs
from leg vertex w0 to leg vertex w1 and borders the leg face where the
coarse drawing gives the supernode the angle theta_j. With k_j picks at
270 between them, its seam angles x_j at w0 and y_j at w1 must turn as
the supernode did, and the sides meeting at a leg vertex share its 270:

    x_j + y_j = 180 + theta_j - 90 k_j,    y_j + x_(j+1) = 270.

The planner tries the splits of the picks over the sides in a fixed
order and takes the first whose walk round these equations, from x_0 =
90 or else 180, closes with every seam at 90 or 180.

The rectangular subroutine itself is a feasibility flow. Once corners
are pinned, every angle is forced except the choice, per internal
degree-3 vertex, of which incident face receives its single 180; faces
need exactly four 90 corners each, which is a bipartite saturation
problem.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import networkx as nx

from .cycles import CycleRecord, extrovert_cycles
from .errors import NotGood, NotRectangularizable
from .graph import Graph, PlaneGraph, dart_reverse
from .orthorep import OrthoRep, arrival_dart, validate


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
        object.__setattr__(self, "corners", tuple(self.corners))
        pg = self.plane
        for v in self.corners:
            if not isinstance(v, int):
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
    return {pg.dart_head(d) for d in pg.faces[pg.external_face].boundary}


# -- the three conditions -----------------------------------------------------


def _extrovert(pg: PlaneGraph) -> list[CycleRecord]:
    """The 2-extrovert and then the 3-extrovert cycles of pg."""
    return [cyc for k in (2, 3) for cyc in extrovert_cycles(pg, k)]


def check_good(pg: PlaneGraph) -> GoodCheck:
    """Report the first violated drawability condition, if any. Raises
    NotBiconnected, before testing any condition, when pg has a bridge."""
    return _check(pg, _extrovert(pg))


def _check(pg: PlaneGraph, cycles) -> GoodCheck:
    """check_good on the 2- and 3-extrovert cycles of pg."""
    outer = pg.faces[pg.external_face]
    outer_vertices = sorted({pg.dart_head(d) for d in outer.boundary})
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


# -- bad cycles ---------------------------------------------------------------


def _bad_cycles(corners, cycles) -> list[CycleRecord]:
    """Those of the k-extrovert cycles, k = 2 or 3, holding fewer than
    4 - k of the designated corners."""
    cset = set(corners)
    return [cyc for cyc in cycles
            if len(cset & cyc.vertices) < 4 - len(cyc.legs)]


def _region_edges(pg: PlaneGraph, cyc: CycleRecord) -> frozenset:
    """The edges of the cycle and inside it: those on its inside faces."""
    return frozenset(e for f in cyc.inside_faces
                     for e in pg.faces[f].edge_ids())


def _maximal_bad(pg: PlaneGraph, corners, cycles) -> list[CycleRecord]:
    bad = _bad_cycles(corners, cycles)
    maximal = [c for c in bad
               if not any(c.inside_faces < o.inside_faces for o in bad)]
    maximal.sort(key=lambda c: (len(c.legs), min(c.edges)))
    seen = set()
    for c in maximal:
        verts = {w for e in _region_edges(pg, c) for w in pg.edge(e)}
        assert not (seen & verts), "maximal bad cycles intersect"
        seen |= verts
    return maximal


# -- rectangular drawings -----------------------------------------------------


def rectangular_drawing(pg: PlaneGraph, corners) -> OrthoRep:
    """All-rectangular-faces representation with 270 at each corner.

    Raises NotRectangularizable when no such assignment exists; on inputs
    produced by the collapse step that signals a bug upstream.
    """
    corners = tuple(corners)
    for v in corners:
        if not isinstance(v, int) or not 0 <= v < pg.n:
            raise NotRectangularizable(f"corner {v!r} is not a vertex id")
    if len(set(corners)) != 4:
        raise NotRectangularizable(f"need four distinct corners: {corners}")
    ext = pg.external_face
    boundary = _boundary_vertices(pg)
    for v in corners:
        if pg.graph.degree(v) != 2 or v not in boundary:
            raise NotRectangularizable(
                f"corner {v} must be a degree-2 external vertex")

    angles = {}
    fixed90 = defaultdict(int)
    slots = defaultdict(list)  # internal face -> [(vertex, dart)]
    free = []
    cset = set(corners)
    for v in range(pg.n):
        vcorners = []
        for e in pg.rotation[v]:
            d = arrival_dart(pg, e, v)
            vcorners.append((d, pg.face_of_dart(d)))
        deg = len(vcorners)
        on_ext = v in boundary
        if deg == 2:
            for d, f in vcorners:
                if v in cset:
                    angles[d] = 270 if f == ext else 90
                    if f != ext:
                        fixed90[f] += 1
                else:
                    angles[d] = 180
        elif deg == 3:
            if on_ext:
                for d, f in vcorners:
                    angles[d] = 180 if f == ext else 90
                    if f != ext:
                        fixed90[f] += 1
            else:
                free.append((v, vcorners))
                for d, f in vcorners:
                    slots[f].append((v, d))
        else:
            raise NotRectangularizable(f"vertex {v} has degree {deg}")

    # every internal face needs exactly four 90 corners
    demand = {}
    total = 0
    for f in range(len(pg.faces)):
        if f == ext:
            continue
        t = len(slots[f]) - (4 - fixed90[f])
        if t < 0 or t > len(slots[f]):
            raise NotRectangularizable(
                f"face {f} cannot reach four right angles")
        demand[f] = t
        total += t
    if total != len(free):
        raise NotRectangularizable("180 supply and demand disagree")

    if free:
        net = nx.DiGraph()
        for v, vcorners in free:
            net.add_edge("s", ("v", v), capacity=1)
            for d, f in vcorners:
                net.add_edge(("v", v), ("f", f), capacity=1)
        for f, t in demand.items():
            if t:
                net.add_edge(("f", f), "t", capacity=t)
        value, flow = nx.maximum_flow(net, "s", "t") if total else (0, {})
        if value != len(free):
            raise NotRectangularizable("no consistent 180 placement exists")
        for v, vcorners in free:
            sent = flow.get(("v", v), {})
            flat = {f for f, amt in sent.items() if amt}
            for d, f in vcorners:
                angles[d] = 180 if ("f", f) in flat else 90

    h = OrthoRep(pg, angles)
    validate(h)
    return h


# -- collapse machinery -------------------------------------------------------


@dataclass(eq=False)
class _Side:
    w0: int
    w1: int
    interior: list
    gface: int
    spares: tuple = ()  # the side's fresh sub-corners
    x: int = 0  # seam angle at w0 inside gface
    y: int = 0  # seam angle at w1 inside gface


@dataclass(eq=False)
class _RegionPlan:
    cyc: CycleRecord
    sides: list
    sub_pg: PlaneGraph
    edges: list  # sub edge id -> host edge id, in the same orientation
    vmap: dict  # host vertex -> sub vertex
    sub_corners: tuple = ()


def _sides(pg: PlaneGraph, cyc: CycleRecord) -> list[_Side]:
    """One side per contour path, bordering the path's leg face."""
    return [_Side(w0=pg.dart_tail(path[0]), w1=pg.dart_head(path[-1]),
                  interior=[pg.dart_head(d) for d in path[:-1]], gface=f)
            for f, path in zip(cyc.leg_faces, cyc.contour_paths)]


def _subgraph(pg: PlaneGraph, cyc: CycleRecord):
    """Plane subgraph of the cycle plus everything inside it, with the host
    edge of each of its edges and the host-to-sub vertex map."""
    redges = sorted(_region_edges(pg, cyc))
    rverts = sorted({w for e in redges for w in pg.edge(e)})
    vmap = {w: i for i, w in enumerate(rverts)}
    e_sub = {e: i for i, e in enumerate(redges)}
    edges = []
    for e in redges:
        u, v = pg.edge(e)
        edges.append((vmap[u], vmap[v]))
    rotation = [[e_sub[e] for e in pg.rotation[w] if e in e_sub]
                for w in rverts]
    sub = PlaneGraph(Graph(len(rverts), edges), rotation, 0)
    d0 = dart_reverse(cyc.contour_paths[0][0])
    ext = sub.face_of_dart((e_sub[d0[0]], d0[1]))
    if ext != sub.external_face:
        sub = sub.with_external_face(ext)
    return sub, redges, vmap


def _collapse(pg: PlaneGraph, corners, plans):
    """Collapse each region to a supernode. Returns the coarse plane graph,
    its corners, the coarse vertex of each host vertex outside the regions,
    and corner(e, w): the coarse corner dart of host edge e at its host end
    w, the dart that arrives at w's image."""
    owner = {w: i for i, plan in enumerate(plans) for w in plan.vmap}
    img = {}
    for w in range(pg.n):
        if w not in owner:
            img[w] = len(img)

    def image(w):
        return img[w] if w not in owner else len(img) + owner[w]

    nverts = len(img) + len(plans)
    edges = []
    halves = {}  # host edge -> [edge id near tail, edge id near head]
    pair_seen = set()
    for e in range(pg.m):
        u, v = pg.edge(e)
        if u in owner and owner[u] == owner.get(v):
            continue  # swallowed by the region
        cu, cv = image(u), image(v)
        key = (min(cu, cv), max(cu, cv))
        if key in pair_seen:
            # parallel after contraction: split with a throwaway vertex
            mid = nverts
            nverts += 1
            halves[e] = [len(edges), len(edges) + 1]
            edges += [(cu, mid), (mid, cv)]
        else:
            pair_seen.add(key)
            halves[e] = [len(edges)] * 2
            edges.append((cu, cv))

    def corner(e, w):
        return (halves[e][1], 0) if w == pg.edge(e)[1] else (halves[e][0], 1)

    rotation = [None] * nverts
    for w, cw in img.items():
        rotation[cw] = [corner(e, w)[0] for e in pg.rotation[w]]
    for i, plan in enumerate(plans):
        # the inside-left walk meets the legs counterclockwise; rotation
        # lists are clockwise
        rotation[len(img) + i] = [
            corner(e, w)[0] for e, w in zip(reversed(plan.cyc.legs),
                                            reversed(plan.cyc.leg_vertices))]
    for hs in halves.values():
        if hs[0] != hs[1]:
            rotation[edges[hs[0]][1]] = list(hs)
    coarse = PlaneGraph(Graph(nverts, edges), rotation, 0)

    ext = None
    face_image = {}
    for e in halves:
        for w in pg.edge(e):
            gf = pg.face_of_dart(arrival_dart(pg, e, w))
            cf = coarse.face_of_dart(corner(e, w))
            prev = face_image.setdefault(gf, cf)
            assert prev == cf, "face image is ambiguous"
            if gf == pg.external_face:
                ext = cf
    assert ext is not None, "external face lost in the collapse"
    if ext != coarse.external_face:
        coarse = coarse.with_external_face(ext)

    for v in corners:
        assert v not in owner or v in plans[owner[v]].cyc.vertices, \
            "designated corner buried strictly inside a region"
    return coarse, tuple(image(v) for v in corners), img, corner


# -- corner budgeting per region ---------------------------------------------


def _allowed_sums(theta, k):
    s = 180 + theta - 90 * k
    return s if s in (180, 270, 360) else None


# the splits of a region's 4 - k fresh sub-corners over its k sides, in the
# order they are tried
_SPLITS = {2: ((1, 1), (0, 2), (2, 0)), 3: ((1, 0, 0), (0, 1, 0), (0, 0, 1))}


def _plan(pg: PlaneGraph, plan: _RegionPlan, thetas, inherited):
    """Pick each side's fresh sub-corners and seam angles for the first
    split that solves the seam equations of the module docstring. thetas
    are the supernode's angles in the sides' leg faces; inherited, when not
    None, is the designated corner on the cycle and is picked first on its
    side."""
    sides = plan.sides
    avail = [sorted((w for w in s.interior if pg.graph.degree(w) == 2),
                    key=lambda w: w != inherited) for s in sides]
    for split in _SPLITS[len(sides)]:
        picks = [a[:k] for a, k in zip(avail, split)]
        if any(len(p) < k or inherited in a[k:]
               for p, a, k in zip(picks, avail, split)):
            continue
        sums = [_allowed_sums(t, k) for t, k in zip(thetas, split)]
        if None in sums:
            continue
        # keep the walk flat up to the real corner: on a side at 270 that
        # holds the inherited corner and a filler, the filler's 270 pairs
        # with the 90 seam on its own stretch
        fixed = [None] * len(sides)
        for j, (s, p, total) in enumerate(zip(sides, picks, sums)):
            if total == 270 and len(p) == 2 and p[0] == inherited:
                before = s.interior.index(p[1]) < s.interior.index(inherited)
                fixed[j] = 90 if before else 180
        for x0 in (90, 180):
            xs = [x0]
            for total in sums:
                xs.append(270 - (total - xs[-1]))
            ys = [total - x for total, x in zip(sums, xs)]
            if (xs[-1] == x0 and all(v in (90, 180) for v in xs + ys)
                    and all(f in (None, x) for f, x in zip(fixed, xs))):
                for s, p, x, y in zip(sides, picks, xs, ys):
                    s.spares, s.x, s.y = tuple(p), x, y
                return
    raise AssertionError("no corner split solves the region's seam angles")


def _corner_dart(pg: PlaneGraph, w: int, face: int):
    for e in pg.rotation[w]:
        d = arrival_dart(pg, e, w)
        if pg.face_of_dart(d) == face:
            return d
    raise AssertionError(f"vertex {w} has no corner in face {face}")


# -- the main recursion -------------------------------------------------------


@dataclass(eq=False)
class _Frame:
    pg: PlaneGraph
    corners: tuple
    cycles: list  # the 2- and 3-extrovert cycles of pg
    parent: object
    ctx: object
    state: str = "new"
    prep: object = None
    i: int = 0
    rep: object = None


@dataclass(eq=False)
class _Prep:
    angles: dict
    plans: list


def _prepare(pg: PlaneGraph, corners, bad) -> _Prep:
    plans = [_RegionPlan(cyc, _sides(pg, cyc), *_subgraph(pg, cyc))
             for cyc in bad]
    coarse, ccorners, img, corner = _collapse(pg, corners, plans)
    r = rectangular_drawing(coarse, ccorners)

    angles = {}
    for w in img:
        for e in pg.rotation[w]:
            angles[arrival_dart(pg, e, w)] = r.angles[corner(e, w)]

    cset = set(corners)
    for plan in plans:
        cyc = plan.cyc
        k = len(cyc.legs)
        # side j ends at leg vertex j + 1, whose leg arrives at the
        # supernode in the side's leg face
        thetas = [r.angles[corner(cyc.legs[(j + 1) % k],
                                  cyc.leg_vertices[(j + 1) % k])]
                  for j in range(k)]
        _plan(pg, plan, thetas, next(iter(cset & cyc.vertices), None))
        subc = sorted(cyc.leg_vertices)
        for s in plan.sides:
            subc.extend(s.spares)
        plan.sub_corners = tuple(plan.vmap[w] for w in subc)
    return _Prep(angles, plans)


def _merge(pg: PlaneGraph, prep: _Prep, plan: _RegionPlan, rep: OrthoRep):
    sub = plan.sub_pg
    ext = sub.external_face
    legs = plan.cyc.leg_vertices
    for (es, o), val in rep.angles.items():
        gd = (plan.edges[es], o)
        w = pg.dart_head(gd)
        if w in legs and sub.face_of_dart((es, o)) == ext:
            continue  # the leg splits this corner; seams replace it
        prep.angles[gd] = val
    for s in plan.sides:
        drift = 0
        for w in s.interior:
            d = _corner_dart(sub, plan.vmap[w], ext)
            drift += 180 - rep.angles[d]
        assert drift == -90 * len(s.spares), \
            "child drawing bent between its corners"
        prep.angles[_corner_dart(pg, s.w0, s.gface)] = s.x
        prep.angles[_corner_dart(pg, s.w1, s.gface)] = s.y


def _draw(pg: PlaneGraph, corners, cycles) -> OrthoRep:
    root = _Frame(pg, tuple(corners), cycles, None, None)
    stack = [root]
    out = None
    while stack:
        fr = stack[-1]
        if fr.state == "new":
            bad = _maximal_bad(fr.pg, fr.corners, fr.cycles)
            if not bad:
                fr.rep = rectangular_drawing(fr.pg, fr.corners)
                fr.state = "done"
            else:
                fr.prep = _prepare(fr.pg, fr.corners, bad)
                fr.state = "kids"
        elif fr.state == "kids":
            if fr.i < len(fr.prep.plans):
                plan = fr.prep.plans[fr.i]
                fr.i += 1
                stack.append(_Frame(plan.sub_pg, plan.sub_corners,
                                    _extrovert(plan.sub_pg), fr, plan))
            else:
                fr.rep = OrthoRep(fr.pg, fr.prep.angles)
                validate(fr.rep)
                fr.state = "done"
        else:
            stack.pop()
            if fr.parent is None:
                out = fr.rep
            else:
                _merge(fr.parent.pg, fr.parent.prep, fr.ctx, fr.rep)
    return out


def no_bend_rep(g: GoodPlaneGraph) -> OrthoRep:
    """Zero-bend representation with 270 at every designated corner.
    Raises NotGood when g fails a drawability condition, and
    NotBiconnected when it has a bridge."""
    pg = g.plane
    cycles = _extrovert(pg)
    rc = _check(pg, cycles)
    if not rc.ok:
        raise NotGood(
            f"condition ({rc.condition}) fails on "
            f"cycle {list(rc.witness_vertices)}")
    h = _draw(pg, g.corners, cycles)
    validate(h)
    assert h.total_bends() == 0
    for v in g.corners:
        d = _corner_dart(pg, v, pg.external_face)
        assert h.angles[d] == 270, f"corner {v} lost its reflex angle"
    return h
