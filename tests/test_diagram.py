import pytest

from vankampen.presentation import TwoComplex, presentation_complex, symmetrized
from vankampen.group_models import GroupElement, LatticeVector, project_z2
from vankampen.diagram import (
    DiagramError,
    DiskDiagram,
    LiftError,
    add_edge_path,
    attach_face,
    boundary_path,
    disk_pieces,
    find_cutcells,
    find_shells,
    find_spurs,
    is_reduced,
    is_topological_disk,
    reduced_witness,
    relator_form_table,
    relator_forms,
    remove_shell,
    remove_spur,
    validate,
    vertex_lift,
)
from vankampen.gallery import GALLERY_IDS, figure_diagram, presentation


@pytest.fixture(scope="module")
def thm2():
    p, m = presentation("thm2")
    return p, m, presentation_complex(p)


@pytest.fixture(scope="module")
def thm1():
    p, m = presentation("thm1")
    return p, m, presentation_complex(p)


def single_pentagon(p):
    return DiskDiagram.from_face_word(p.relators[0].letters, p.names)


def pentagon_triangle(p, x):
    """The thm1 pentagon glued to the triangle along c1 c2 c3."""
    P = single_pentagon(p)
    tri_forms = [w for (w, idx, _o) in relator_forms(x) if idx == 1]
    O = P.outer_orbit()
    for pos in range(len(O)):
        arc = tuple(P.labels[O[(pos + t) % len(O)]] for t in range(3))
        for w in tri_forms:
            if arc == w[:3]:
                cand = attach_face(P, pos, 3, w)
                if cand is not None:
                    return cand
    raise AssertionError("no gluing found")


@pytest.mark.parametrize(
    "sigma, labels, outer",
    [
        ((0,), (1,), 0),  # odd number of darts
        ((0, 1), (1,), 0),  # one label short
        ((1, 5), (1, -1), 0),  # sigma entry out of range
        ((0, 0), (1, -1), 0),  # repeated sigma entry
        ((0, 1), (0, 0), 0),  # zero label
        ((0, 1), (1, 1), 0),  # opposite labels not inverses
        ((0, 1), (3, -3), 0),  # label outside the alphabet
        ((0, 1), (1, -1), None),  # missing outer dart
        ((0, 1), (1, -1), 2),  # outer dart out of range
        ((), (), 0),  # outer dart on the single-vertex diagram
    ],
)
def test_constructor_rejects(sigma, labels, outer):
    with pytest.raises(DiagramError):
        DiskDiagram(sigma, labels, ("a", "b"), outer)


def test_single_vertex_structure():
    d = DiskDiagram.single_vertex(("a", "b"))
    assert d.faces == () and d.outer_face is None
    assert d.inner_face_indices == () and d.area == 0
    assert d.vertices == ((),)


def test_single_pentagon_valid(thm2):
    p, _m, x = thm2
    d = single_pentagon(p)
    rep = validate(d, x)
    assert rep.ok
    assert (d.n_vertices, d.n_edges, len(d.faces)) == (5, 5, 2)
    assert d.euler_characteristic == 2


def test_figure1_valid(thm2):
    _p, _m, x = thm2
    d = figure_diagram(1, 2)
    rep = validate(d, x)
    assert rep.ok
    assert d.area == 8


def test_invalid_euler_reported(thm2):
    _p, _m, x = thm2
    # one vertex, interleaved a and b loops: a torus, not a sphere
    d = DiskDiagram((2, 3, 1, 0), (1, -1, 2, -2), ("a", "b", "c"), 0)
    rep = validate(d, x)
    assert not rep.ok
    assert any("Euler" in e for e in rep.entries)


def test_invalid_face_word_reported(thm2):
    _p, _m, x = thm2
    d = DiskDiagram.from_face_word((1, 2, 1), ("a", "b", "c"))  # "aba" is no relator
    rep = validate(d, x)
    assert not rep.ok
    assert any("not a relator" in e for e in rep.entries)


def test_disconnected_reported(thm2):
    _p, _m, x = thm2
    d = DiskDiagram((1, 0, 3, 2), (3, -3, 3, -3), ("a", "b", "c"), 1)
    rep = validate(d, x)
    assert any("disconnected" in e for e in rep.entries)


def test_relator_form_table_is_one_per_complex():
    """Equal complexes share one form table, and ``relator_forms`` lists it
    as each distinct rotation's first ``(word, relator, orientation)`` in
    ``symmetrized`` order, over the galleries and a proper-power relator
    whose rotations repeat, beside a relator and its inverse."""
    power = TwoComplex(("a", "b"), ((1, 2, 1, 2), (1, 1, -2), (2, -1, -1)))
    for x in [presentation_complex(presentation(gid)[0]) for gid in GALLERY_IDS] + [power]:
        twin = TwoComplex(x.alphabet, x.faces)
        assert twin is not x and relator_form_table(twin) is relator_form_table(x)
        first, seen = [], set()
        for w, idx, _rot, orient in symmetrized(x.face_words()):
            if w not in seen:
                seen.add(w)
                first.append((w, idx, orient))
        assert relator_forms(x) == first
    assert len(relator_forms(power)) == 4 + 6


def test_boundary_words(thm2, thm1):
    p2, _m2, _x2 = thm2
    d = single_pentagon(p2)
    assert boundary_path(d).word.text() == "abABc"
    assert d.perimeter == 5
    f1 = figure_diagram(1, 2)
    assert boundary_path(f1).word.text() == "aabbAABB"
    f3 = figure_diagram(3, 2)
    assert boundary_path(f3).word.text() == "a1a1b1b1A1A1B1B1"


def test_is_reduced_positive_cases(thm2):
    assert is_reduced(figure_diagram(1, 2))
    assert is_reduced(figure_diagram(3, 2))
    p, _m, x = thm2
    assert is_reduced(single_pentagon(p))


def test_back_to_back_pair_detected(thm2):
    p, _m, x = thm2
    P = single_pentagon(p)
    # glue the mirror pentagon along one boundary edge: a cancellable pair
    O = P.outer_orbit()
    B = len(O)
    found = False
    for pos in range(B):
        # the fold-back mirror reads the outer label sequence itself
        w_full = tuple(P.labels[O[(pos + t) % B]] for t in range(B))
        cand = attach_face(P, pos, 1, w_full)
        if cand is not None and not is_reduced(cand):
            witness = reduced_witness(cand)
            assert witness is not None and witness.face_a != witness.face_b
            found = True
    assert found


def test_spurs_single_edge(thm2):
    p, _m, _x = thm2
    d = add_edge_path(DiskDiagram.single_vertex(p.names), 0, (1,))
    spurs = find_spurs(d)
    assert len(spurs) == 2  # both endpoints have valence one


def test_spurs_absent_on_figures():
    assert find_spurs(figure_diagram(1, 2)) == []
    assert find_spurs(figure_diagram(3, 2)) == []


def test_shells_area2_thm2(thm2):
    d = figure_diagram(1, 1)  # pentagon enclosing its monogon
    shells = find_shells(d)
    assert len(shells) == 1
    (s,) = shells
    assert len(s.darts) == 4  # four of five pentagon sides on the boundary
    # the monogon's edge is interior, so it is not a shell
    mono = [fi for fi in d.inner_face_indices if len(d.faces[fi]) == 1]
    assert s.face not in mono


def test_shells_absent_on_figures():
    assert find_shells(figure_diagram(1, 2)) == []
    assert find_shells(figure_diagram(3, 2)) == []


def test_shell_thm1_pentagon_triangle(thm1):
    p, _m, x = thm1
    d = pentagon_triangle(p, x)
    assert validate(d, x).ok
    shells = find_shells(d)
    assert len(shells) == 1
    assert len(shells[0].darts) == 6  # 6 of 9 pentagon sides free


def test_single_cell_is_shell_by_strict_reading(thm2):
    p, _m, _x = thm2
    d = single_pentagon(p)
    shells = find_shells(d)
    assert len(shells) == 1 and len(shells[0].darts) == 5


def test_cutcells_figure1():
    d = figure_diagram(1, 2)
    cut1 = find_cutcells(d, 1)
    pentagons = {fi for fi in d.inner_face_indices if len(d.faces[fi]) == 5}
    assert {w.face for w in cut1} == pentagons and len(cut1) == 4
    assert find_cutcells(d, 2) == []
    assert find_cutcells(d, 3) == []


def test_cutcells_figure3():
    d = figure_diagram(3, 2)
    c1 = {w.face for w in find_cutcells(d, 1)}
    c2 = {w.face for w in find_cutcells(d, 2)}
    assert c1 and c1 == c2
    assert find_cutcells(d, 3) == []
    # def-2 witnesses here are two bare vertex visits
    w2 = find_cutcells(d, 2)[0]
    assert all(len(comp) == 1 for comp in w2.components)


def test_cutcells_figure3_n1_none():
    d = figure_diagram(3, 1)
    for defn in (1, 2, 3):
        assert find_cutcells(d, defn) == []
    assert find_spurs(d) == [] and find_shells(d) == []


def test_cutcell_defn_validation():
    with pytest.raises(DiagramError):
        find_cutcells(figure_diagram(3, 1), 4)


def test_remove_shell_area2(thm2):
    _p, _m, x = thm2
    d = figure_diagram(1, 1)
    out = remove_shell(d, find_shells(d)[0])
    assert out.area == d.area - 1 == 1
    assert out.perimeter == 1
    assert d.perimeter - out.perimeter >= 1
    assert validate(out, x).ok


def test_remove_shell_single_cell(thm2):
    p, _m, x = thm2
    d = single_pentagon(p)
    out = remove_shell(d, 0 if d.outer_face != 0 else 1)
    assert out.n_darts == 0 and out.area == 0
    assert validate(out, x).ok


def test_remove_shell_requires_shell():
    d = figure_diagram(1, 2)
    with pytest.raises(DiagramError):
        remove_shell(d, d.inner_face_indices[0])


def test_remove_spur_chain(thm2):
    p, _m, x = thm2
    d = add_edge_path(DiskDiagram.single_vertex(p.names), 0, (1, 2))
    assert d.perimeter == 4
    spur = find_spurs(d)[0]
    out = remove_spur(d, spur.darts[0])
    assert out.perimeter == d.perimeter - 2
    assert out.area == d.area == 0
    # a lone edge: either dart leaves the single vertex
    assert [remove_spur(out, t).n_darts for t in (0, 1)] == [0, 0]
    assert validate(out, x).ok


def test_remove_spur_requires_spur():
    d = figure_diagram(3, 2)
    with pytest.raises(DiagramError):
        remove_spur(d, 0)


def test_disk_pieces_simple(thm2):
    p, _m, x = thm2
    d = single_pentagon(p)
    pieces = disk_pieces(d)
    assert len(pieces) == 1 and pieces[0] == d


def test_disk_pieces_wedge(thm2):
    p, _m, x = thm2
    d = single_pentagon(p)
    # hang a second pentagon at a boundary corner: a cut vertex
    wedge = attach_face(d, 0, 0, p.relators[0].letters)
    assert wedge is not None and wedge.area == 2
    assert not is_topological_disk(wedge)
    pieces = disk_pieces(wedge)
    assert len(pieces) == 2
    assert all(is_topological_disk(q) for q in pieces)
    assert all(validate(q, x).ok for q in pieces)


def test_disk_pieces_tree(thm2):
    p, _m, _x = thm2
    tree = add_edge_path(DiskDiagram.single_vertex(p.names), 0, (1, 2, 1))
    assert disk_pieces(tree) == []


def test_is_topological_disk_cases(thm2):
    p, _m, _x = thm2
    assert is_topological_disk(single_pentagon(p))
    assert is_topological_disk(figure_diagram(1, 2))
    assert not is_topological_disk(DiskDiagram.single_vertex(p.names))
    tree = add_edge_path(DiskDiagram.single_vertex(p.names), 0, (1,))
    assert not is_topological_disk(tree)


def test_vertex_lift_pentagon(thm2):
    p, m, _x = thm2
    d = single_pentagon(p)
    lifts = vertex_lift(d, m, basepoint=d.vertex_of(0))
    # circuit a b a^-1 b^-1 c: successive corners 1, a, ab, b, 1
    zs = [lifts[d.vertex_of(t)] for t in d.faces[d.face_of[0]]]
    expected = [
        GroupElement.identity(),
        GroupElement.lattice((1, 0)),
        GroupElement.lattice((1, 1)),
        GroupElement.lattice((0, 1)),
        GroupElement.identity(),
    ]
    assert zs == expected


def test_vertex_lift_figure3_corners():
    p, m = presentation("eq1")
    d = figure_diagram(3, 2)
    lifts = vertex_lift(d, m)
    coords = set()
    for q in d.outer_orbit():
        coords.add(m.lattice_part(lifts[d.vertex_of(q)]))
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    corners = {(x - min(xs), y - min(ys)) for (x, y) in coords}
    assert {(0, 0), (2, 0), (2, 2), (0, 2)} <= corners


def test_vertex_lift_detects_mislabeling(thm2):
    _p, m, _x = thm2
    bad = DiskDiagram.from_face_word((1, 2, -1), ("a", "b", "c"))  # a b a^-1 is not closed
    with pytest.raises(LiftError):
        vertex_lift(bad, m)


def test_boundary_length_parity(corpus_eq1_4):
    for d in corpus_eq1_4:
        total = sum(len(d.faces[fi]) for fi in d.inner_face_indices)
        assert (total - d.perimeter) % 2 == 0


def test_vertex_lift_boundary_closes(thm2, corpus_thm2_6):
    _p, m, _x = thm2
    for d in corpus_thm2_6[:50]:
        lifts = vertex_lift(d, m)
        g = GroupElement.identity()
        for t in d.boundary_circuit():
            x = d.labels[t]
            img = m.images[m.presentation.names[abs(x) - 1]]
            g = g * (img if x > 0 else img.inverse())
        assert g.is_identity


def test_canonical_mirror_identified():
    d = figure_diagram(3, 2)
    assert d.mirror() == d or d.mirror().canonical_code() == d.canonical_code()
    assert hash(d.mirror()) == hash(d)


def test_json_roundtrip():
    d = figure_diagram(1, 2)
    d2 = DiskDiagram.from_json(d.to_json())
    assert d2 == d
    assert d2.boundary_word_ints() == d.boundary_word_ints()


def test_dot_export_mentions_features():
    d = figure_diagram(1, 2)
    feats = find_cutcells(d, 1)
    dot = d.to_dot(feats)
    assert "digraph" in dot and "cutcell def 1" in dot


def test_removals_preserve_validity_small_corpus(thm2, corpus_thm2_6):
    _p, _m, x = thm2
    for d in corpus_thm2_6[:80]:
        for s in find_shells(d):
            out = remove_shell(d, s)
            assert out.area == d.area - 1
            assert d.perimeter - out.perimeter >= 1
            assert validate(out, x).ok


def test_dehn_iteration_terminates_on_dehn_complex():
    # <a | aaa> has the pure Dehn property at small scale; iterating
    # spur/shell removal must reach a single vertex within perimeter steps
    from vankampen.presentation import Presentation

    p = Presentation.build("a", ["a a a"])
    x = presentation_complex(p)
    from vankampen.enumeration import EnumerationConfig, enumerate_diagrams

    for d in enumerate_diagrams(x, EnumerationConfig(max_area=2)):
        steps = 0
        budget = max(d.perimeter, 1)
        while d.n_darts and steps <= budget:
            spurs = find_spurs(d)
            if spurs:
                d = remove_spur(d, spurs[0].darts[0])
            else:
                shells = find_shells(d)
                assert shells, "stuck without spur or shell"
                d = remove_shell(d, shells[0])
            steps += 1
        assert d.n_darts == 0
