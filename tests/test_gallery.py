import pytest

from vankampen.presentation import Presentation, presentation_complex
from vankampen.group_models import POINT_HALF, FreeProductModel, GroupElement, LatticeVector, project_z2
from vankampen.diagram import (
    DiagramError,
    DiskDiagram,
    LiftError,
    add_edge_path,
    attach_face,
    boundary_path,
    find_cutcells,
    find_shells,
    is_reduced,
    is_topological_disk,
    reduced_witness,
    relator_forms,
    validate,
    vertex_lift,
)
from vankampen.enumeration import EnumerationConfig, enumerate_diagrams
from vankampen.gallery import (
    GALLERY_IDS,
    _coordinates_along,
    _corners,
    _xy,
    CornerWitness,
    complex_for,
    confirm_corner_witness,
    corner_classification,
    figure_diagram,
    find_face_by_corners,
    presentation,
    torus_coordinates,
)


def test_gallery_presentations_shape():
    p2, _ = presentation("thm2")
    assert sorted(len(r) for r in p2.relators) == [1, 5]
    p1, _ = presentation("thm1")
    assert sorted(len(r) for r in p1.relators) == [5, 9]
    pe2, m = presentation("eq2")
    assert len(pe2.relators) == 4
    assert m.abelian_rank == 2 and m.free_rank == 4
    pt, mt = presentation("torusT")
    assert len(pt.relators) == 2 and all(len(r) == 3 for r in pt.relators)
    assert mt.free_rank == 0


def test_gallery_ids_complete():
    assert set(GALLERY_IDS) == {"thm2", "thm1", "eq1", "eq2", "torusT"}
    for gid in GALLERY_IDS:
        p, _m = presentation(gid)
        x = complex_for(gid)
        assert x.alphabet == p.names
        assert x.faces == tuple(r.letters for r in p.relators)


@pytest.mark.parametrize("fig,gid", [(1, "thm2"), (3, "eq1")])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_figure_diagram_families(fig, gid, n):
    p, m = presentation(gid)
    x = presentation_complex(p)
    d = figure_diagram(fig, n)
    assert validate(d, x).ok
    assert is_reduced(d) and is_topological_disk(d)
    assert d.area == 2 * n * n
    g = (1,) * n + (2,) * n + (-1,) * n + (-2,) * n
    from vankampen.enumeration import canonical_cyclic

    assert canonical_cyclic(d.boundary_word_ints()) == canonical_cyclic(g)
    assert d.perimeter == 4 * n


def test_figure_diagram_validation():
    with pytest.raises(ValueError):
        figure_diagram(2, 2)
    with pytest.raises(ValueError):
        figure_diagram(1, 0)


def test_torus_coordinates_single_pentagon():
    p, m = presentation("thm1")
    d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    pc = torus_coordinates(d, m)
    assert len(pc.face_squares) == 1
    (base, kind), = pc.face_squares.values()
    assert kind == "ur"  # pentagons cover upper-right half-squares


def test_torus_coordinates_edge_differences():
    p, m = presentation("thm1")
    pi = {i + 1: m.pi(name) for i, name in enumerate(p.names)}
    d = figure_diagram(3, 2)
    pe, me = presentation("eq1")
    pc = torus_coordinates(d, me)
    for dart in range(d.n_darts):
        x = d.labels[dart]
        tail = pc.vertex_coords[d.vertex_of[dart]]
        head = pc.vertex_coords[d.vertex_of[dart ^ 1]]
        px, py = me.pi(pe.names[abs(x) - 1])
        if x < 0:
            px, py = -px, -py
        assert (head[0] - tail[0], head[1] - tail[1]) == (px, py)


def test_torus_coordinates_face_kinds_fig3():
    pe, me = presentation("eq1")
    d = figure_diagram(3, 2)
    pc = torus_coordinates(d, me)
    kinds = sorted(kind for _base, kind in pc.face_squares.values())
    assert kinds == ["ll"] * 4 + ["ur"] * 4


def test_torus_coordinates_single_vertex():
    p, m = presentation("thm1")
    pc = torus_coordinates(DiskDiagram.single_vertex(p.names), m)
    assert pc.vertex_coords == ((0, 0),)
    assert pc.face_squares == {}


def test_face_on_three_points_of_no_unit_half_square_raises():
    """The one cell of ``<a, b, c | a b c>`` with a -> (2, 0), b -> (-2, 2)
    and c -> (0, -2) reads a trivial word on the points (0, 0), (2, 0) and
    (0, 2): three points on two x and two y values, but not the corners
    of a half-square of the unit grid."""
    p = Presentation.build("a b c", ["a b c"])
    lattice = GroupElement.lattice
    m = FreeProductModel(p, 2, 0, {"a": lattice((2, 0)), "b": lattice((-2, 2)), "c": lattice((0, -2))})
    d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    assert vertex_points(d, m) == ((0, 0), (2, 0), (0, 2))
    with pytest.raises(DiagramError, match="^face 0 does not cover a half-square$"):
        torus_coordinates(d, m)
    with pytest.raises(DiagramError, match="^face 0 does not cover a half-square$"):
        reference_torus_squares(d, m)


def vertex_points(d, m):
    """The lattice projection of each vertex's lift, vertex 0 at the
    origin, as the classifier places the vertices: the dart walk's point
    at each vertex's least dart (the single vertex has no dart, and sits
    at the origin)."""
    pt = _coordinates_along(d, m)[0]
    return tuple(_xy(pt[v[0]]) if v else (0, 0) for v in d.vertices)


def _lattice_parts(d, m):
    lift = vertex_lift(d, m)
    return tuple(m.lattice_part(lift[v]) for v in range(d.n_vertices))


def test_vertex_coordinates_match_vertex_lifts(galleries):
    """The walk's coordinates are the lattice parts of the vertex lifts:
    on every diagram of thm1 and eq1 to area 4, where ``torus_coordinates``
    returns them, and on the figure grids, whose figure-1 pentagons cover
    whole squares, so only the walk itself applies."""
    for gid in ("thm1", "eq1"):
        _p, m, x = galleries[gid]
        for d in enumerate_diagrams(x, EnumerationConfig(max_area=4)):
            assert torus_coordinates(d, m).vertex_coords == _lattice_parts(d, m)
    for fig, gid in ((1, "thm2"), (3, "eq1")):
        m = galleries[gid][1]
        for n in (1, 2, 3):
            d = figure_diagram(fig, n)
            assert vertex_points(d, m) == _lattice_parts(d, m)


def dart_points_and_lifts(d, m):
    """The dart walk's point of every dart, and the lattice part of the
    vertex lift at its tail."""
    lift = vertex_lift(d, m)
    pt = _coordinates_along(d, m)[0]
    return [_xy(p) for p in pt], [m.lattice_part(lift[d.vertex_of[t]]) for t in range(d.n_darts)]


def test_dart_points_match_vertex_lifts(galleries):
    """Every dart's point is the lattice part of the vertex lift at its
    tail: on every diagram of thm1 and eq1 to area 4 and on the figure
    grids."""
    count = 0
    for gid in ("thm1", "eq1"):
        _p, m, x = galleries[gid]
        for d in enumerate_diagrams(x, EnumerationConfig(max_area=4)):
            points, lifts = dart_points_and_lifts(d, m)
            assert points == lifts
            count += 1
    for fig, gid in ((1, "thm2"), (3, "eq1")):
        m = galleries[gid][1]
        for n in (1, 2, 3):
            points, lifts = dart_points_and_lifts(figure_diagram(fig, n), m)
            assert points == lifts
            count += 1
    assert count


def test_corner_classification_builds_no_vertex_orbits(galleries):
    """The classifier places darts, so an enumerated disk that it
    classifies still has no vertex orbits."""
    _p, m, x = galleries["thm1"]
    count = 0
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=3)):
        if d.area >= 2:
            corner_classification(d, m)
            assert d._vertices is None and d._vertex_of is None
            count += 1
    assert count


def test_packed_point_guard():
    """The one cell of ``<a, b, c | a b c>`` with a -> (s, 0),
    b -> (-s, s) and c -> (0, -s): its walk has 3 edges, so the points
    are placed while 2 * 3 * s is below ``POINT_HALF``, and ValueError is
    raised from there on, as it is at s = ``POINT_HALF``, where the point
    (s, 0) is out of the packing's range."""
    p = Presentation.build("a b c", ["a b c"])
    lattice = GroupElement.lattice
    for s, fits in ((POINT_HALF // 6, True), (POINT_HALF // 6 + 1, False), (POINT_HALF, False)):
        m = FreeProductModel(p, 2, 0, {"a": lattice((s, 0)), "b": lattice((-s, s)), "c": lattice((0, -s))})
        d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
        if fits:
            assert vertex_points(d, m) == ((0, 0), (s, 0), (0, s))
        else:
            with pytest.raises(ValueError, match="^diagram too large for packed lattice points$"):
                torus_coordinates(d, m)


def test_torus_coordinates_rejects_face_off_the_presentation():
    """The thm1 pentagon with its free-factor letters inverted has the
    pentagon's lattice image and covers a half-square, but the model does
    not send its word to the identity; only the face check sees it."""
    p, m = presentation("thm1")
    free = {p.names.index(name) + 1 for name in ("a2", "b2", "c2", "c3")}
    word = [-v if abs(v) in free else v for v in p.relators[0].letters]
    d = DiskDiagram.from_face_word(word, p.names)
    with pytest.raises(LiftError):
        vertex_lift(d, m)
    with pytest.raises(LiftError, match="nontrivial"):
        torus_coordinates(d, m)


def test_torus_coordinates_rejects_wrong_alphabet_and_disconnected():
    """The single vertex takes the general walk, so its alphabet is
    checked as ``vertex_lift`` checks it."""
    p, m = presentation("thm1")
    d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    with pytest.raises(LiftError, match="alphabet"):
        torus_coordinates(d, presentation("eq1")[1])
    vertex = DiskDiagram.single_vertex(("x",))
    with pytest.raises(LiftError, match="alphabet"):
        vertex_lift(vertex, m)
    with pytest.raises(LiftError, match="^diagram alphabet does not match the model's presentation$"):
        torus_coordinates(vertex, m)
    n = d.n_darts
    twice = DiskDiagram(
        d.sigma + tuple(n + t for t in d.sigma), d.labels * 2, p.names, d.outer_dart
    )
    with pytest.raises(LiftError, match="disconnected"):
        vertex_lift(twice, m)
    with pytest.raises(LiftError, match="disconnected"):
        torus_coordinates(twice, m)


def test_torus_coordinates_checks_a_map_that_is_not_planar():
    """One vertex with loops a2 and b2 on a torus: the map has no inner
    face to check, but a2 is not trivial in the model, so no lift exists."""
    p, m = presentation("thm1")
    a2, b2 = p.names.index("a2") + 1, p.names.index("b2") + 1
    torus = DiskDiagram([2, 3, 1, 0], [a2, -a2, b2, -b2], p.names, 0)
    assert torus.euler_characteristic == 0 and torus.area == 0
    with pytest.raises(LiftError):
        vertex_lift(torus, m)
    with pytest.raises(LiftError):
        torus_coordinates(torus, m)


def _pentagon_triangle():
    p, m = presentation("thm1")
    x = presentation_complex(p)
    P = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    from vankampen.diagram import attach_face, relator_forms

    tri_forms = [w for (w, idx, _o) in relator_forms(x) if idx == 1]
    O = P.outer_orbit()
    for pos in range(len(O)):
        arc = tuple(P.labels[O[(pos + t) % len(O)]] for t in range(3))
        for w in tri_forms:
            if arc == w[:3]:
                cand = attach_face(P, pos, 3, w)
                if cand is not None:
                    return cand
    raise AssertionError


def test_corner_classification_pentagon_triangle():
    p, m = presentation("thm1")
    d = _pentagon_triangle()
    w = corner_classification(d, m)
    # the free pentagon across the corner triangle's diagonal is a shell
    assert w.kind == "shell"
    assert confirm_corner_witness(d, w)


def test_corner_classification_rejects_single_cell():
    p, m = presentation("thm1")
    d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    with pytest.raises(DiagramError, match="^corner classification needs at least two cells$"):
        corner_classification(d, m)


def reference_face_points(d, coords):
    """Each inner face's set of vertex points, read off the vertex
    coordinates, with the base (the least x and the least y of its points)
    and kind of the half-square whose corners they are; DiagramError for
    the first face, in face order, whose points are neither kind's
    corners.  The classifier's per-word shapes must agree."""
    out = {}
    for fi in d.inner_face_indices:
        pts = {coords[d.vertex_of[t]] for t in d.faces[fi]}
        base = (min(q[0] for q in pts), min(q[1] for q in pts))
        kinds = [kind for kind in ("ur", "ll") if pts == _corners(base, kind)]
        if not kinds:
            raise DiagramError(f"face {fi} does not cover a half-square")
        out[fi] = (pts, base, kinds[0])
    return out


def reference_torus_squares(d, m):
    points = reference_face_points(d, vertex_points(d, m))
    return {fi: (base, kind) for fi, (_pts, base, kind) in points.items()}


def reference_corner_classification(d, m):
    """The classifier as it was before one vertex walk served both its disk
    test and its vertex placement, and before faces were placed by their
    words' shapes: ``is_topological_disk``, then the vertex coordinates
    and each face's points read off them, then a second ``_corners`` set
    per face.  It carries the c-diagonal check, which replaced a bare
    ``KeyError``."""
    if d.area < 2:
        raise DiagramError("corner classification needs at least two cells")
    if not is_topological_disk(d):
        raise DiagramError("corner classification needs a topological disk")
    if reduced_witness(d) is not None:
        raise DiagramError("corner classification needs a reduced diagram")
    squares = reference_torus_squares(d, m)
    corners_of = {fi: _corners(base, kind) for fi, (base, kind) in squares.items()}
    p = min((c for cs in corners_of.values() for c in cs), key=lambda c: (c[1], c[0]))
    pentagons = {fi for fi, (_, kind) in squares.items() if kind == "ur"}
    holders = sorted(fi for fi, cs in corners_of.items() if p in cs)
    pent_holders = [fi for fi in holders if fi in pentagons]
    if pent_holders:
        return CornerWitness("shell", pent_holders[0])
    tri = holders[0]
    outer = d.outer_face
    c_dart = {}
    for t in d.faces[tri]:
        name = d.alphabet[abs(d.labels[t]) - 1]
        if name in ("c1", "c2", "c3"):
            c_dart[name] = t
    if len(c_dart) < 3:
        raise DiagramError(f"corner triangle {tri} has no c1 c2 c3 diagonal")
    free_c = {name: d.face_of[t ^ 1] == outer for name, t in c_dart.items()}
    if free_c["c1"] or free_c["c3"]:
        return CornerWitness("shell", tri)
    if free_c["c2"]:
        return CornerWitness("cutcell3", tri)
    q = d.face_of[c_dart["c1"] ^ 1]
    if q not in pentagons:
        raise DiagramError("cell across the corner diagonal is not a pentagon")
    c_idx = {d.alphabet.index(nm) + 1 for nm in ("c1", "c2", "c3")}
    free = all(
        d.face_of[t ^ 1] == outer
        for t in d.faces[q]
        if abs(d.labels[t]) not in c_idx
    )
    return CornerWitness("shell" if free else "cutcell3", q)


def corner_outcome(classify, d, m):
    """The witness, or the type and message of the exception raised."""
    try:
        return classify(d, m)
    except Exception as exc:
        return type(exc), str(exc)


def test_corner_classification_error_paths(galleries):
    """Each rejection's type and message: a map that is not a disk, a
    diagram that is not reduced, a model over another alphabet and a face
    on no half-square.  The c-diagonal error is pinned on the gallery
    diagrams below."""
    p, m, x = galleries["thm1"]
    d = _pentagon_triangle()
    hung = add_edge_path(d, 0, (1,))
    assert hung.area == 2
    with pytest.raises(DiagramError, match="^corner classification needs a topological disk$"):
        corner_classification(hung, m)
    P = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    O = P.outer_orbit()
    folded = attach_face(P, 0, 1, tuple(P.labels[q] for q in O))
    assert is_topological_disk(folded) and not is_reduced(folded)
    with pytest.raises(DiagramError, match="^corner classification needs a reduced diagram$"):
        corner_classification(folded, m)
    with pytest.raises(LiftError, match="^diagram alphabet does not match the model's presentation$"):
        corner_classification(d, galleries["eq1"][1])
    _p2, m2, x2 = galleries["thm2"]
    square = next(e for e in enumerate_diagrams(x2, EnumerationConfig(max_area=2)) if e.area == 2)
    with pytest.raises(DiagramError) as exc:
        corner_classification(square, m2)
    assert type(exc.value) is DiagramError
    assert str(exc.value) == "face 0 does not cover a half-square"


def test_corner_classification_raises_only_diagram_errors(galleries):
    """Every gallery diagram of area 2 to 4, each classified with its own
    model, gets a witness or a DiagramError.  The corner triangles of eq2
    and torusT that lack a c2 or c3 dart, which once raised a bare
    KeyError, raise the c-diagonal DiagramError."""
    lacking = {}
    for gid in GALLERY_IDS:
        _p, m, x = galleries[gid]
        for d in enumerate_diagrams(x, EnumerationConfig(max_area=4)):
            if d.area < 2:
                continue
            out = corner_outcome(corner_classification, d, m)
            assert isinstance(out, CornerWitness) or issubclass(out[0], DiagramError), (gid, out)
            if out in [(DiagramError, f"corner triangle {fi} has no c1 c2 c3 diagonal") for fi in d.inner_face_indices]:
                lacking[gid] = lacking.get(gid, 0) + 1
    assert lacking == {"eq2": 18, "torusT": 7}


def torus_squares(d, m):
    return torus_coordinates(d, m).face_squares


def assert_corner_classification_matches_reference(ds, m):
    """The classifier and ``torus_coordinates``' half-squares give what
    the references give, or raise the same exception."""
    count = 0
    for d in ds:
        assert corner_outcome(torus_squares, d, m) == corner_outcome(reference_torus_squares, d, m), d
        if d.area >= 2:
            assert corner_outcome(corner_classification, d, m) == corner_outcome(
                reference_corner_classification, d, m
            ), d
            count += 1
    assert count


@pytest.mark.parametrize("gid", GALLERY_IDS)
def test_corner_classification_matches_reference(galleries, gid):
    """The same witness, or the same exception type and message, as the
    reference on every gallery diagram of area 2 to 4 and its mirror, and
    on maps with a cell or an edge path hung at a corner.  The hung cells
    read a relator form, or a trivial word that is not one: a form with a
    cancelling pair inserted (a free letter's pair keeps the form's
    points, a lattice letter's adds one), or a product of two forms."""
    _p, m, x = galleries[gid]
    ds = list(enumerate_diagrams(x, EnumerationConfig(max_area=4)))
    hangs = list({idx: w for w, idx, _o in reversed(relator_forms(x))}.values())
    w = hangs[0]
    hangs += [w[:1] + (a, -a) + w[1:] for a in range(1, len(x.alphabet) + 1)]
    hangs.append(hangs[0] + hangs[1])
    hung = [
        e
        for d in ds
        if d.area <= 2
        for e in [attach_face(d, 0, 0, w) for w in hangs] + [add_edge_path(d, 0, (1,))]
    ]
    assert_corner_classification_matches_reference(ds + [d.mirror() for d in ds] + hung, m)


def glued(first, second, names):
    """A face reading ``first`` with a face reading a rotation of
    ``second`` glued along one edge: faces 0 and 2, in that order."""
    d = DiskDiagram.from_face_word(first, names)
    for pos, t in enumerate(d.outer_orbit()):
        for r in range(len(second)):
            w = second[r:] + second[:r]
            if w[0] == d.labels[t]:
                e = attach_face(d, pos, 1, w)
                if e is not None:
                    assert e.inner_face_indices == (0, 2) and e.face_word_ints(0) == tuple(first)
                    return e
    raise AssertionError


def test_nontrivial_face_raises_before_a_face_on_no_half_square(galleries):
    """Every face is checked for a trivial word, in face order, before any
    face's half-square: a nontrivial face raises its LiftError even after
    a trivial face that covers no half-square, which raises DiagramError
    only when every face is trivial.  Face 0 reads the product of the two
    thm1 relators (trivial, not a relator form, a whole square); the
    other face reads the pentagon or, nontrivial, the triangle with its
    free letters inverted."""
    p, m, _x = galleries["thm1"]
    square = p.relators[0].letters + p.relators[1].letters
    free = {p.names.index(name) + 1 for name in ("a2", "b2", "c2", "c3")}
    bad = tuple(-v if abs(v) in free else v for v in p.relators[1].letters)
    form = p.relators[0].letters
    cases = [
        (glued(square, form, p.names), DiagramError, "face 0 does not cover a half-square"),
        (glued(square, bad, p.names), LiftError, "face 2 reads a nontrivial word"),
        (glued(bad, square, p.names), LiftError, "face 0 reads a nontrivial word"),
    ]
    for d, exc, msg in cases:
        assert is_topological_disk(d) and is_reduced(d)
        for classify in (torus_coordinates, corner_classification, reference_corner_classification):
            with pytest.raises(exc, match=f"^{msg}"):
                classify(d, m)


def test_corner_classification_matches_reference_thm1_area5(corpus_thm1_5, galleries):
    assert_corner_classification_matches_reference(corpus_thm1_5, galleries["thm1"][1])


def test_corner_classification_confirmed_at_small_area(corpus_thm1_5, galleries):
    # concordance holds on areas 2 and 3; the first branched exceptions
    # appear at area 4 (see the acceptance suite)
    _p, m, _x = galleries["thm1"]
    for d in corpus_thm1_5:
        if not 2 <= d.area <= 3:
            continue
        w = corner_classification(d, m)
        assert confirm_corner_witness(d, w), (d, w)


def test_find_face_by_corners_fig3():
    pe, me = presentation("eq1")
    d = figure_diagram(3, 2)
    pc = torus_coordinates(d, me)
    R = find_face_by_corners(d, pc, {(0, 1), (1, 1), (1, 0)})
    assert R is not None
    assert pc.face_squares[R] == ((0, 0), "ur")
