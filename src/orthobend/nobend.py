"""Rectilinear representations of good plane graphs with chosen corners.

A biconnected plane 3-graph is "good" when (i) its external cycle carries
at least four degree-2 vertices, (ii) every 2-extrovert cycle carries at
least two and (iii) every 3-extrovert cycle at least one. Good graphs are
exactly the ones drawable with zero bends, and this module produces such
a representation once four degree-2 external vertices are designated as
corners.

The construction collapses every maximal bad cycle (one that misses the
designated corners it would need) into a supernode, draws the coarse
graph with all faces rectangular, and recurses into the collapsed
regions, using the leg vertices plus fresh degree-2 picks as the
designated corners of each region. Child representations are stitched
back by splitting the 270 angle a region shows to its surroundings among
the two corners the leg edge cuts it into; the split is solved per side
of the region from the rectangular drawing's angle at the supernode.

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

from .cycles import find_2_extrovert, three_cycle_records
from .errors import NotGood, NotRectangularizable
from .graph import Graph, PlaneGraph, dart_reverse
from .orthorep import OrthoRep, validate


@dataclass(frozen=True)
class GoodCheck:
    """Outcome of the three drawability conditions, first failure wins."""

    ok: bool
    condition: str | None = None  # "i" | "ii" | "iii"
    witness_vertices: tuple = ()
    witness_edges: tuple = ()


@dataclass(frozen=True)
class BadCycle:
    """A 2- or 3-extrovert cycle short of designated corners.

    darts walk the cycle with its inside region on the left; legs are the
    cut edges hanging outside, one per leg vertex.
    """

    k: int
    edges: frozenset
    vertices: frozenset
    legs: tuple
    inside_faces: frozenset
    darts: tuple
    maximal: bool


@dataclass(frozen=True)
class GoodPlaneGraph:
    plane: PlaneGraph
    corners: tuple

    def __post_init__(self):
        object.__setattr__(self, "corners", tuple(self.corners))
        pg = self.plane
        if len(set(self.corners)) != 4:
            raise NotGood(f"need four distinct corners, got {self.corners}")
        ext = _boundary_vertices(pg)
        for v in self.corners:
            if not (0 <= v < pg.n) or len(pg.rotation[v]) != 2:
                raise NotGood(f"corner {v} is not a degree-2 vertex")
            if v not in ext:
                raise NotGood(f"corner {v} is not on the external face")


def _boundary_vertices(pg: PlaneGraph) -> set:
    return {pg.dart_head(d) for d in pg.faces[pg.external_face].boundary}


def _degree(pg: PlaneGraph, v: int) -> int:
    return len(pg.rotation[v])


# -- the three conditions -----------------------------------------------------


def check_good(pg: PlaneGraph) -> GoodCheck:
    """Report the first violated drawability condition, if any."""
    outer = pg.faces[pg.external_face]
    outer_vertices = sorted({pg.dart_head(d) for d in outer.boundary})
    deg2_outer = [v for v in outer_vertices if _degree(pg, v) == 2]
    if len(deg2_outer) < 4:
        return GoodCheck(
            False, "i",
            tuple(outer_vertices), tuple(sorted(set(outer.edge_ids()))))
    for rec in sorted(find_2_extrovert(pg), key=lambda r: sorted(r.edges)):
        verts = {pg.dart_tail(d) for d in rec.darts}
        if sum(1 for v in verts if _degree(pg, v) == 2) < 2:
            return GoodCheck(
                False, "ii",
                tuple(sorted(verts)), tuple(sorted(rec.edges)))
    threes = [r for r in three_cycle_records(pg) if r.kind == "extrovert"]
    for rec in sorted(threes, key=lambda r: sorted(r.edges)):
        if not any(_degree(pg, v) == 2 for v in rec.vertices):
            return GoodCheck(
                False, "iii",
                tuple(sorted(rec.vertices)), tuple(sorted(rec.edges)))
    return GoodCheck(True)


# -- bad cycles ---------------------------------------------------------------


def _bad_cycles(pg: PlaneGraph, corners) -> list[BadCycle]:
    cset = set(corners)
    out = []
    for rec in find_2_extrovert(pg):
        verts = frozenset(pg.dart_tail(d) for d in rec.darts)
        if len(cset & verts) < 2:
            out.append(BadCycle(2, rec.edges, verts, rec.legs,
                                rec.inside_faces, rec.darts, False))
    for rec in three_cycle_records(pg):
        if rec.kind != "extrovert":
            continue
        darts = tuple(d for path in rec.contour_paths for d in path)
        if len(cset & rec.vertices) < 1:
            out.append(BadCycle(3, rec.edges, rec.vertices, rec.legs,
                                rec.inside_faces, darts, False))
    return out


def _region_edges(pg: PlaneGraph, cyc: BadCycle) -> frozenset:
    inside = cyc.inside_faces
    grabbed = {e for e in range(pg.m)
               if inside & set(pg.faces_of_edge(e))}
    return frozenset(grabbed | cyc.edges)


def find_maximal_bad_cycles(g: GoodPlaneGraph) -> list[BadCycle]:
    return _maximal_bad(g.plane, g.corners)


def _maximal_bad(pg: PlaneGraph, corners) -> list[BadCycle]:
    bad = _bad_cycles(pg, corners)
    regions = [_region_edges(pg, c) for c in bad]
    maximal = []
    for i, c in enumerate(bad):
        if any(j != i and regions[i] < regions[j] for j in range(len(bad))):
            continue
        maximal.append(BadCycle(c.k, c.edges, c.vertices, c.legs,
                                c.inside_faces, c.darts, True))
    maximal.sort(key=lambda c: (c.k, min(c.edges)))
    seen = set()
    for c in maximal:
        verts = c.vertices | {w for e in _region_edges(pg, c)
                              for w in pg.edge(e)}
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
    if len(set(corners)) != 4:
        raise NotRectangularizable(f"need four distinct corners: {corners}")
    ext = pg.external_face
    boundary = _boundary_vertices(pg)
    for v in corners:
        if _degree(pg, v) != 2 or v not in boundary:
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
            u, w = pg.edge(e)
            d = (e, 0) if w == v else (e, 1)
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
    darts: tuple
    theta: int = 0
    k: int = 0
    spares: tuple = ()
    x: int = 0  # seam angle at w0 inside gface
    y: int = 0  # seam angle at w1 inside gface


@dataclass(eq=False)
class _RegionPlan:
    cyc: BadCycle
    sides: list
    sub_pg: PlaneGraph
    sub_corners: tuple
    e_sub: dict  # host edge id -> sub edge id
    e_host: dict  # sub edge id -> (host edge id, flipped)
    v_host: dict  # sub vertex -> host vertex
    leg_vertices: frozenset


def _leg_vertex(pg, cyc: BadCycle, leg: int) -> int:
    u, v = pg.edge(leg)
    if u in cyc.vertices and v in cyc.vertices:
        raise AssertionError(f"leg {leg} has both ends on the cycle")
    return u if u in cyc.vertices else v


def _split_sides(pg: PlaneGraph, cyc: BadCycle) -> list[_Side]:
    legs = {_leg_vertex(pg, cyc, e) for e in cyc.legs}
    darts = list(cyc.darts)
    marks = [i for i, d in enumerate(darts) if pg.dart_head(d) in legs]
    assert len(marks) == cyc.k, "leg vertices do not split the walk"
    n = len(darts)
    sides = []
    for j in range(len(marks)):
        a, b = marks[j], marks[(j + 1) % len(marks)]
        span = [(a + 1 + t) % n for t in range((b - a) % n or n)]
        arc = [darts[i] for i in span]
        outside = {pg.face_of_dart(dart_reverse(d)) for d in arc}
        assert len(outside) == 1, "side borders several outer faces"
        sides.append(_Side(
            w0=pg.dart_tail(arc[0]),
            w1=pg.dart_head(arc[-1]),
            interior=[pg.dart_head(d) for d in arc[:-1]],
            gface=outside.pop(),
            darts=tuple(arc)))
    return sides


def _subgraph(pg: PlaneGraph, cyc: BadCycle):
    """Plane subgraph of the cycle plus everything inside it."""
    redges = sorted(_region_edges(pg, cyc))
    rverts = sorted({w for e in redges for w in pg.edge(e)})
    vmap = {w: i for i, w in enumerate(rverts)}
    e_sub = {e: i for i, e in enumerate(redges)}
    e_host = {}
    edges = []
    for i, e in enumerate(redges):
        u, v = pg.edge(e)
        edges.append((vmap[u], vmap[v]))
        e_host[i] = (e, False)
    rotation = [[e_sub[e] for e in pg.rotation[w] if e in e_sub]
                for w in rverts]
    sub = PlaneGraph(Graph(len(rverts), edges), rotation, 0)
    d0 = dart_reverse(cyc.darts[0])
    ext = sub.face_of_dart((e_sub[d0[0]], d0[1]))
    if ext != sub.external_face:
        sub = sub.with_external_face(ext)
    v_host = {i: w for w, i in vmap.items()}
    return sub, e_sub, e_host, v_host


@dataclass(eq=False)
class _Coarse:
    pg: PlaneGraph
    corners: tuple
    e_prov: dict  # coarse edge -> host edge
    img: dict  # host vertex -> coarse vertex (outside the regions)
    super_at: list  # region index -> coarse vertex
    cface_of_gface: dict


def _collapse(pg: PlaneGraph, corners, plans) -> _Coarse:
    owner = {}
    for i, plan in enumerate(plans):
        for w in plan.v_host.values():
            owner[w] = i
    img = {}
    for w in range(pg.n):
        if w not in owner:
            img[w] = len(img)
    super_at = [len(img) + i for i in range(len(plans))]
    nverts = len(img) + len(plans)

    edges = []
    e_prov = {}
    halves = {}  # host edge -> [edge id near tail, edge id near head]
    pair_seen = set()
    dummy = []
    for e in range(pg.m):
        u, v = pg.edge(e)
        iu, iv = owner.get(u), owner.get(v)
        if iu is not None and iv is not None and iu == iv:
            continue  # swallowed by the region
        cu = img[u] if iu is None else super_at[iu]
        cv = img[v] if iv is None else super_at[iv]
        key = (min(cu, cv), max(cu, cv))
        if key in pair_seen:
            # parallel after contraction: split with a throwaway vertex
            d = nverts + len(dummy)
            dummy.append(d)
            a = len(edges)
            edges.append((cu, d))
            e_prov[a] = e
            b = len(edges)
            edges.append((d, cv))
            e_prov[b] = e
            halves[e] = [a, b]
        else:
            pair_seen.add(key)
            i = len(edges)
            edges.append((cu, cv))
            e_prov[i] = e
            halves[e] = [i, i]
        assert cu != cv, "edge collapsed onto a single supernode"

    def touch(e, w):
        """Coarse edge id of host edge e at its endpoint w."""
        u, v = pg.edge(e)
        return halves[e][0] if w == u else halves[e][1]

    rotation = [None] * (nverts + len(dummy))
    for w in range(pg.n):
        if w in owner:
            continue
        rotation[img[w]] = [touch(e, w) for e in pg.rotation[w]]
    for i, plan in enumerate(plans):
        ccw = []
        legset = set(plan.cyc.legs)
        for d in plan.cyc.darts:
            w = pg.dart_head(d)
            for e in pg.rotation[w]:
                if e in legset and w == _leg_vertex(pg, plan.cyc, e):
                    ccw.append(touch(e, w))
        assert len(ccw) == plan.cyc.k
        # the inside-left walk meets the legs counterclockwise; rotation
        # lists are clockwise
        rotation[super_at[i]] = list(reversed(ccw))
    for e, hs in halves.items():
        if hs[0] != hs[1]:
            mid = edges[hs[0]][1]
            rotation[mid] = [hs[0], hs[1]]

    graph = Graph(nverts + len(dummy), edges)
    coarse = PlaneGraph(graph, rotation, 0)

    def image_dart(e, o):
        return (halves[e][0 if o == 0 else 1], o)

    ext = None
    cface_of_gface = {}
    for e in range(pg.m):
        if e not in halves:
            continue
        for o in (0, 1):
            gf = pg.face_of_dart((e, o))
            cf = coarse.face_of_dart(image_dart(e, o))
            prev = cface_of_gface.setdefault(gf, cf)
            assert prev == cf, "face image is ambiguous"
            if gf == pg.external_face:
                ext = cf
    assert ext is not None, "external face lost in the collapse"
    if ext != coarse.external_face:
        coarse = coarse.with_external_face(ext)

    ccorners = []
    for v in corners:
        if v in owner:
            i = owner[v]
            assert v in plans[i].cyc.vertices, \
                "designated corner buried strictly inside a region"
            ccorners.append(super_at[i])
        else:
            ccorners.append(img[v])
    return _Coarse(coarse, tuple(ccorners), e_prov, img, super_at,
                   cface_of_gface)


# -- corner budgeting per region ---------------------------------------------


def _allowed_sums(theta, k):
    s = 180 + theta - 90 * k
    return s if s in (180, 270, 360) else None


def _plan_two(pg, plan: _RegionPlan, thetas, inherited):
    """Distribute the two free sub-corners over the sides of a 2-cycle."""
    a, b = plan.sides
    a.theta, b.theta = thetas
    avail = [[w for w in s.interior if _degree(pg, w) == 2]
             for s in (a, b)]
    combos = [(ka, 2 - ka) for ka in (1, 0, 2)
              if _allowed_sums(a.theta, ka) is not None
              and _allowed_sums(b.theta, 2 - ka) is not None]
    pick = None
    for ka, kb in combos:
        need = [ka, kb]
        if inherited is not None:
            side = 0 if inherited in a.interior else 1
            if need[side] == 0:
                continue
        if len(avail[0]) >= need[0] and len(avail[1]) >= need[1]:
            pick = (ka, kb)
            break
    assert pick is not None, "no feasible corner split for a 2-cycle"
    for s, k, cand in zip((a, b), pick, avail):
        s.k = k
        chosen = []
        if inherited is not None and inherited in s.interior:
            chosen.append(inherited)
        for w in cand:
            if len(chosen) == k:
                break
            if w not in chosen:
                chosen.append(w)
        s.spares = tuple(chosen)
        assert len(s.spares) == k
    for s in (a, b):
        total = _allowed_sums(s.theta, s.k)
        if total == 180:
            s.x, s.y = 90, 90
        elif total == 360:
            s.x, s.y = 180, 180
        else:
            s.x, s.y = 90, 180
            if inherited is not None and inherited in s.interior and s.k == 2:
                # keep the walk flat up to the real corner: the filler 270
                # must pair with the 90 on its own stretch
                other = next(w for w in s.spares if w != inherited)
                before = s.interior.index(other) < s.interior.index(inherited)
                s.x, s.y = (90, 180) if before else (180, 90)
    # the two seam angles at a shared leg vertex must sum to 270
    assert a.x + b.y == 270 and a.y + b.x == 270


def _plan_three(pg, plan: _RegionPlan, thetas):
    sides = plan.sides
    for s, th in zip(sides, thetas):
        s.theta = th
        s.k = 0
        s.spares = ()
    avail = [[w for w in s.interior if _degree(pg, w) == 2] for s in sides]
    spot = next(j for j in range(3) if avail[j])
    sides[spot].k = 1
    sides[spot].spares = (avail[spot][0],)
    sums = [_allowed_sums(s.theta, s.k) for s in sides]
    assert all(t is not None for t in sums), "corner split beats the angles"
    for x0 in (90, 180):
        vals = [x0]
        ok = True
        for j in range(3):
            y = sums[j] - vals[j]
            if y not in (90, 180):
                ok = False
                break
            if j < 2:
                vals.append(270 - y)
        if ok and 270 - (sums[2] - vals[2]) == x0:
            for j in range(3):
                sides[j].x = vals[j]
                sides[j].y = sums[j] - vals[j]
            return
    raise AssertionError("seam angles at a 3-cycle have no solution")


def _corner_dart(pg: PlaneGraph, w: int, face: int):
    for e in pg.rotation[w]:
        u, v = pg.edge(e)
        d = (e, 0) if v == w else (e, 1)
        if pg.face_of_dart(d) == face:
            return d
    raise AssertionError(f"vertex {w} has no corner in face {face}")


# -- the main recursion -------------------------------------------------------


@dataclass(eq=False)
class _Frame:
    pg: PlaneGraph
    corners: tuple
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
    plans = []
    for cyc in bad:
        sides = _split_sides(pg, cyc)
        sub, e_sub, e_host, v_host = _subgraph(pg, cyc)
        plans.append(_RegionPlan(
            cyc, sides, sub, (), e_sub, e_host, v_host,
            frozenset(_leg_vertex(pg, cyc, e) for e in cyc.legs)))
    coarse = _collapse(pg, corners, plans)
    r = rectangular_drawing(coarse.pg, coarse.corners)

    angles = {}
    back = {}
    for w in range(pg.n):
        if w in coarse.img:
            back[coarse.img[w]] = w
    for ce in range(coarse.pg.m):
        for o in (0, 1):
            d = (ce, o)
            cw = coarse.pg.dart_head(d)
            if cw not in back:
                continue  # supernode or throwaway midpoint corner
            w = back[cw]
            e = coarse.e_prov[ce]
            u, v = pg.edge(e)
            gd = (e, 0) if v == w else (e, 1)
            angles[gd] = r.angles[d]

    cset = set(corners)
    for i, plan in enumerate(plans):
        sup = coarse.super_at[i]
        thetas = []
        for s in plan.sides:
            cf = coarse.cface_of_gface[s.gface]
            cd = _corner_dart(coarse.pg, sup, cf)
            thetas.append(r.angles[cd])
        inherited = None
        hit = cset & plan.cyc.vertices
        if hit:
            assert len(hit) == 1
            inherited = next(iter(hit))
        if plan.cyc.k == 2:
            _plan_two(pg, plan, thetas, inherited)
        else:
            assert inherited is None, "bad 3-cycles never hold a corner"
            _plan_three(pg, plan, thetas)
        v_sub = {w: i2 for i2, w in plan.v_host.items()}
        subc = [v_sub[w] for w in sorted(plan.leg_vertices)]
        for s in plan.sides:
            subc.extend(v_sub[w] for w in s.spares)
        plan.sub_corners = tuple(subc)
    return _Prep(angles, plans)


def _merge(pg: PlaneGraph, prep: _Prep, plan: _RegionPlan, rep: OrthoRep):
    sub = plan.sub_pg
    ext = sub.external_face
    legs = plan.leg_vertices
    for (es, o), val in rep.angles.items():
        e, flipped = plan.e_host[es]
        go = o ^ (1 if flipped else 0)
        gd = (e, go)
        w = pg.dart_head(gd)
        if w in legs and sub.face_of_dart((es, o)) == ext:
            continue  # the leg splits this corner; seams replace it
        prep.angles[gd] = val
    v_sub = {w: i for i, w in plan.v_host.items()}
    for s in plan.sides:
        drift = 0
        for w in s.interior:
            d = _corner_dart(sub, v_sub[w], ext)
            drift += 180 - rep.angles[d]
        assert drift == -90 * s.k, "child drawing bent between its corners"
        prep.angles[_corner_dart(pg, s.w0, s.gface)] = s.x
        prep.angles[_corner_dart(pg, s.w1, s.gface)] = s.y


def _draw(pg: PlaneGraph, corners) -> OrthoRep:
    root = _Frame(pg, tuple(corners), None, None)
    stack = [root]
    out = None
    while stack:
        fr = stack[-1]
        if fr.state == "new":
            bad = _maximal_bad(fr.pg, fr.corners)
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
                stack.append(_Frame(plan.sub_pg, plan.sub_corners, fr, plan))
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


def no_bend_rep(g: GoodPlaneGraph, verify: bool = True) -> OrthoRep:
    """Zero-bend representation with 270 at every designated corner."""
    if verify:
        rc = check_good(g.plane)
        if not rc.ok:
            raise NotGood(
                f"condition ({rc.condition}) fails on "
                f"cycle {list(rc.witness_vertices)}")
    h = _draw(g.plane, g.corners)
    validate(h)
    assert h.total_bends() == 0
    for v in g.corners:
        d = _corner_dart(g.plane, v, g.plane.external_face)
        assert h.angles[d] == 270, f"corner {v} lost its reflex angle"
    return h
