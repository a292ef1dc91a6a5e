import pytest

from vankampen.presentation import presentation_complex
from vankampen.group_models import LatticeVector, project_z2
from vankampen.diagram import (
    DiagramError,
    DiskDiagram,
    LiftError,
    boundary_path,
    find_cutcells,
    find_shells,
    is_reduced,
    is_topological_disk,
    validate,
    vertex_lift,
)
from vankampen.enumeration import EnumerationConfig, enumerate_diagrams
from vankampen.gallery import (
    GALLERY_IDS,
    _vertex_coordinates,
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
        tail = pc.vertex_coords[d.vertex_of(dart)]
        head = pc.vertex_coords[d.vertex_of(dart ^ 1)]
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
            assert _vertex_coordinates(d, m) == _lattice_parts(d, m)


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
    p, m = presentation("thm1")
    d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    with pytest.raises(LiftError, match="alphabet"):
        torus_coordinates(d, presentation("eq1")[1])
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
    with pytest.raises(DiagramError):
        corner_classification(d, m)


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
