import json

import pytest
from hypothesis import example, given, settings, strategies as st

from vankampen.presentation import TwoComplex, min_rotation_starts, presentation_complex, symmetrized
from vankampen.group_models import GroupElement, LatticeVector, project_z2
from vankampen.diagram import (
    DiagramError,
    DiskDiagram,
    FeatureWitness,
    LiftError,
    _cyclic_runs,
    _encode,
    _forward_code,
    _inverse,
    _mirror_code,
    _shell_runs,
    _spanning_darts,
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
from vankampen.enumeration import EnumerationConfig, enumerate_diagrams
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
        # darts that compare equal to ints; JSON would write true, false, 1.0
        ((True, False), (1, -1), 0),
        ((1, 0), (1, -1), True),
        ((1.0, 0), (1, -1), 0),
        ((1, 0), (1, -1), 0.0),
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


class CountingSigma(tuple):
    """A rotation that counts its reads."""

    reads = 0

    def __getitem__(self, i):
        CountingSigma.reads += 1
        return tuple.__getitem__(self, i)


def test_shell_runs_match_eager_reference_on_figures_and_hand_made_maps(thm2):
    """The lazy walk yields the eager reference's runs in the same order on
    the figure grids, on a single cell (one run around the whole outer
    face), on that cell with a cell or an edge path hung at each corner,
    and on a figure grid that has no shell."""
    p, _m, x = thm2
    cell = single_pentagon(p)
    w = relator_forms(x)[0][0]
    maps = [figure_diagram(fig, n) for fig in (1, 3) for n in (1, 2, 3, 4)]
    maps += [cell] + [attach_face(cell, pos, 0, w) for pos in range(cell.perimeter)]
    maps += [add_edge_path(cell, pos, (1, -2)) for pos in range(cell.perimeter)]
    for d in maps:
        assert list(_shell_runs(d)) == reference_shell_runs(d)
    B = cell.perimeter
    assert [k - j for _g, j, k in _shell_runs(cell)] == [B]
    assert list(_shell_runs(figure_diagram(1, 2))) == []


def test_shell_runs_stop_at_the_first_shell(thm2):
    """Seven thm2 pentagons, each glued to the map along one edge, have a
    shell run that ends before the last outer position.  Asking for the
    first run reads the rotation only up to that run's end; the whole
    walk reads it once per outer dart."""
    p, _m, x = thm2
    d = single_pentagon(p)
    w = relator_forms(x)[0][0]
    for _ in range(6):
        d = next(
            e
            for pos in range(d.perimeter)
            if d.labels[d.outer_orbit()[pos]] == w[0]
            for e in [attach_face(d, pos, 1, w)]
            if e is not None
        )
    d.sigma = CountingSigma(d.sigma)
    CountingSigma.reads = 0
    run = next(_shell_runs(d))
    first = CountingSigma.reads
    CountingSigma.reads = 0
    list(_shell_runs(d))
    assert first <= run[2] + 1 < d.perimeter == CountingSigma.reads
    assert run == reference_shell_runs(d)[0]


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
    lifts = vertex_lift(d, m)
    # circuit a b a^-1 b^-1 c: successive corners 1, a, ab, b, 1
    zs = [lifts[d.vertex_of[t]] for t in d.faces[d.face_of[0]]]
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
        coords.add(m.lattice_part(lifts[d.vertex_of[q]]))
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
    """Cutcells are noted on their faces; for a square with an edge hung
    at a corner, the spur's tip is red, the square's four edges (its free
    arc) are blue, and the hung edge is not coloured."""
    d = figure_diagram(1, 2)
    feats = find_cutcells(d, 1)
    dot = d.to_dot(feats)
    assert "digraph" in dot and "cutcell def 1" in dot
    d = add_edge_path(DiskDiagram.from_face_word((1, 2, -1, -2), ("a", "b")), 0, (2,))
    spurs, shells = find_spurs(d), find_shells(d)
    assert len(spurs) == 1 and len(shells) == 1
    lines = d.to_dot(spurs + shells).splitlines()
    tip = spurs[0].vertex
    assert [ln for ln in lines if 'color="red"' in ln] == [f'  v{tip} [shape=point color="red"];']
    assert sum('color="blue"' in ln for ln in lines) == 4
    (hung,) = [ln for ln in lines if f"-> v{tip} " in ln]
    assert hung.endswith('[label="b"];')


def test_json_line_without_alphabet_reads_over_sorted_names():
    """A line without ``"alphabet"`` reads back over the sorted names of
    the labels it carries: here ``b`` and ``a`` swap numbers, and a name
    no label carries is dropped."""
    d = DiskDiagram.from_face_word((1, 2, -1, -2), ("b", "a"))
    data = json.loads(d.to_json())
    del data["alphabet"]
    e = DiskDiagram.from_json(json.dumps(data))
    swapped = tuple((3 - abs(x)) * (1 if x > 0 else -1) for x in d.labels)
    assert (e.sigma, e.labels, e.alphabet, e.outer_dart) == (d.sigma, swapped, ("a", "b"), d.outer_dart)
    one = json.loads(DiskDiagram((1, 0), (2, -2), ("b", "a"), 0).to_json())
    del one["alphabet"]
    e = DiskDiagram.from_json(json.dumps(one))
    assert (e.labels, e.alphabet) == ((1, -1), ("a",))


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


# ----------------------------------------------------------------------
# the detectors against per-vertex, per-face and per-dart references


def reference_find_spurs(d):
    """Valence-1 vertices, read from the vertex orbits."""
    return [
        FeatureWitness("spur", vertex=v, darts=(orbit[0],))
        for v, orbit in enumerate(d.vertices)
        if len(orbit) == 1
    ]


def reference_find_shells(d):
    """Shells face by face: each inner face's free darts, linked where the
    vertex between two of them has valence 2, and its longest run."""
    outer = d.outer_face
    out = []
    for fi in d.inner_face_indices:
        circuit = d.faces[fi]
        free = [d.face_of[t ^ 1] == outer for t in circuit]
        linked = [
            free[t] and free[t - 1] and d.sigma[circuit[t]] == circuit[t - 1] ^ 1
            for t in range(len(circuit))
        ]
        best = max(_cyclic_runs(free, linked), key=len, default=[])
        if 2 * len(best) > len(circuit):
            out.append(FeatureWitness("shell", face=fi, darts=tuple(circuit[u] for u in best)))
    return out


def reference_shell_runs(d):
    """``_shell_runs`` as it was before it went lazy: the inner dart behind
    each outer dart and the list of run starts, both over the whole outer
    face, then the runs between consecutive starts."""
    if not d.n_darts:
        return []
    sigma, faces, face_of, outer = d.sigma, d.faces, d.face_of, d.outer_face
    O = faces[outer]
    B = len(O)
    opp = [q ^ 1 if face_of[q ^ 1] != outer else -1 for q in O]
    starts = [j for j in range(B) if opp[j] < 0 or opp[j - 1] < 0 or sigma[O[j]] != opp[j - 1]]
    if not starts:
        starts = [(O.index(faces[face_of[opp[0]]][0] ^ 1) + 1) % B]
    runs = []
    for j, k in zip(starts, starts[1:] + [starts[0] + B]):
        if opp[j] >= 0:
            g = face_of[opp[j]]
            if 2 * (k - j) > len(faces[g]):
                runs.append((g, j, k))
    return runs


def reference_is_connected(d):
    """Whether a walk over the darts, by ``sigma`` and by opposition,
    reaches every dart."""
    n = d.n_darts
    if n == 0:
        return True
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        t = stack.pop()
        for e in (d.sigma[t], t ^ 1):
            if not seen[e]:
                seen[e] = True
                count += 1
                stack.append(e)
    return count == n


def reference_is_topological_disk(d):
    """The disk test with its own loop over the edges that have the outer
    face on both sides, and the dart walk for connectivity."""
    if d.area < 1 or not reference_is_connected(d) or d.euler_characteristic != 2:
        return False
    for e in range(d.n_edges):
        if d.face_of[2 * e] == d.outer_face and d.face_of[2 * e + 1] == d.outer_face:
            return False
    tails = [d.vertex_of[q] for q in d.outer_orbit()]
    return len(tails) == len(set(tails))


def assert_detectors_match_references(d):
    """The detectors and the disk test agree with their references, the
    scan's early-exit shell test with ``find_shells``, and the boundary
    word with the labels of the boundary circuit.  The walk's heads are
    distinct and not vertex 0, each dart leaves vertex 0 or an earlier
    dart's head, and it has V - 1 darts exactly when the map is
    connected."""
    assert find_spurs(d) == reference_find_spurs(d)
    shells = find_shells(d)
    assert shells == reference_find_shells(d)
    assert (next(_shell_runs(d), None) is not None) == bool(shells)
    assert list(_shell_runs(d)) == reference_shell_runs(d)
    assert d.boundary_word_ints() == tuple(d.labels[t] for t in d.boundary_circuit())
    connected = reference_is_connected(d)
    assert d.is_connected == connected
    tree = _spanning_darts(d)
    heads = [d.vertex_of[t ^ 1] for t in tree]
    assert len(set(heads)) == len(heads) and 0 not in heads
    reached = {0}
    for t, head in zip(tree, heads):
        assert d.vertex_of[t] in reached
        reached.add(head)
    assert (len(tree) == d.n_vertices - 1) == connected
    assert is_topological_disk(d) == reference_is_topological_disk(d)


def doubled(d):
    """Two disjoint copies of ``d``'s map, the outer face in the first."""
    n = d.n_darts
    return DiskDiagram(d.sigma + tuple(n + t for t in d.sigma), d.labels * 2, d.alphabet, d.outer_dart)


def disks_and_mirrors(x, max_area):
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=max_area)):
        yield d
        yield d.mirror()


def maps_that_are_not_disks(x):
    """Each relator's first form hung at every corner, edge paths of one
    and two edges grown there, and the doubled disconnected map, over the
    enumerated disks of area <= 3 and their mirrors; then the single
    vertex and edge paths grown from it, each also doubled."""
    hangs = list({idx: w for w, idx, _o in reversed(relator_forms(x))}.values())
    for d in disks_and_mirrors(x, 3):
        yield doubled(d)
        for pos in range(d.perimeter):
            yield from (attach_face(d, pos, 0, w) for w in hangs)
            yield from (add_edge_path(d, pos, (1,)), add_edge_path(d, pos, (1, -2)))
    point = DiskDiagram.single_vertex(x.alphabet)
    for e in (point, add_edge_path(point, 0, (1,)), add_edge_path(point, 0, (1, 2, -1))):
        yield from (e, doubled(e))


ENUMERATED_SIZES = [("thm2", 6), ("torusT", 6), ("thm1", 4), ("eq1", 4), ("eq2", 4), ("square", 6)]


@pytest.mark.parametrize("gid,max_area", ENUMERATED_SIZES)
def test_detectors_match_references_on_enumerated_disks(galleries, gid, max_area):
    count = 0
    for e in disks_and_mirrors(galleries[gid][2], max_area):
        assert_detectors_match_references(e)
        # so the scan's spur-or-shell answer need not ask for spurs
        assert is_topological_disk(e) and find_spurs(e) == []
        count += 1
    assert count


@pytest.mark.parametrize("gid", GALLERY_IDS + ("square",))
def test_detectors_match_references_on_maps_that_are_not_disks(galleries, gid):
    count = disks = 0
    for e in maps_that_are_not_disks(galleries[gid][2]):
        assert_detectors_match_references(e)
        count += 1
        disks += is_topological_disk(e)
    assert count and not disks


def code_halves(d, start=0):
    """The forward and mirror halves of ``_map_code`` on ``d``, its outer
    orbit walked from its ``start``-th dart."""
    O = d.outer_orbit()
    O = O[start:] + O[:start]
    k = len(d.alphabet)
    return _forward_code(d.sigma, d.labels, O, k), _mirror_code(d.sigma, d.labels, O, k)


@pytest.mark.parametrize("gid,max_area", ENUMERATED_SIZES)
def test_code_halves_swap_under_mirror(galleries, gid, max_area):
    """The mirror half of a diagram is the forward half of its mirror and
    the reverse; neither half depends on where the outer orbit starts; and
    the canonical code is the lesser half."""
    x = galleries[gid][2]
    count = 0
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=max_area)):
        m = d.mirror()
        f, g = code_halves(d)
        assert code_halves(m) == (g, f)
        for e, halves in ((d, (f, g)), (m, (g, f))):
            for start in range(1, e.perimeter):
                assert code_halves(e, start) == halves
            assert e.canonical_code() == (x.alphabet, tuple(min(f, g)))
            count += 1
    assert count


def reference_code_from(start, sigma, labels):
    """``_code_from`` before codes were bytes: the flat tuple of (sigma,
    opposite, label) ints, with labels unshifted."""
    rel = [-1] * len(sigma)
    rel[start] = 0
    order = [start]
    cnt = 1
    out = []
    for d in order:
        a = sigma[d]
        ra = rel[a]
        if ra < 0:
            ra = rel[a] = cnt
            cnt += 1
            order.append(a)
        b = d ^ 1
        rb = rel[b]
        if rb < 0:
            rb = rel[b] = cnt
            cnt += 1
            order.append(b)
        out += (ra, rb, labels[d])
    return tuple(out)


def reference_map_code(d):
    """``_map_code`` of ``d`` from ``reference_code_from``."""

    def forward(sigma, O):
        starts = min_rotation_starts([d.labels[q] for q in O])
        return min(reference_code_from(O[i], sigma, d.labels) for i in starts)

    O = d.outer_orbit()
    B = len(O)
    return min(forward(d.sigma, O), forward(_inverse(d.sigma), [O[(B - j) % B] ^ 1 for j in range(B)]))


# a value of each encoding width, and values either side of each boundary
CODE_VALUES = st.one_of(
    st.integers(0, 300), st.integers(65_530, 65_540), st.integers(0, 2**32 - 1)
)


@given(st.lists(CODE_VALUES, max_size=4), st.lists(CODE_VALUES, max_size=4),
       st.lists(CODE_VALUES, max_size=4))
@example([], [254], [255])
@example([7], [255], [65_536])
@example([], [255], [255, 0, 0, 0, 255])
@example([1], [254, 0], [255])
def test_encoding_keeps_tuple_order_and_equality(prefix, a, b):
    a, b = prefix + a, prefix + b
    ea, eb = _encode(a), _encode(b)
    assert (ea == eb) == (a == b)
    assert (ea < eb) == (a < b)
    if all(v < 255 for v in a):
        assert ea == bytes(a)


def assert_codes_order_as_reference(ds):
    """Sorting ``ds`` by bytes code gives the order of the reference tuple
    codes, with the same classes of equal codes."""
    ref = [reference_map_code(d) for d in ds]
    new = [d._code() for d in ds]
    by_ref = sorted(range(len(ds)), key=ref.__getitem__)
    by_new = sorted(range(len(ds)), key=new.__getitem__)
    assert by_new == by_ref
    assert [ref[i] == ref[j] for i, j in zip(by_ref, by_ref[1:])] == [
        new[i] == new[j] for i, j in zip(by_new, by_new[1:])
    ]


@pytest.mark.parametrize("gid,max_area", ENUMERATED_SIZES)
def test_bytes_codes_sort_and_group_as_tuple_codes(galleries, gid, max_area):
    x = galleries[gid][2]
    ds = list(enumerate_diagrams(x, EnumerationConfig(max_area=max_area)))
    # each mirror is equal to its diagram, so every class has two members
    assert_codes_order_as_reference(ds + [d.mirror() for d in ds])


def test_bytes_codes_of_a_grid_past_255_darts():
    grids = [figure_diagram(3, n) for n in (1, 2, 3, 4, 5)]
    big = grids[-1]
    assert big.n_darts > 255 and 255 in big._code()
    assert all(len(g._code()) == 3 * g.n_darts for g in grids[:-1])
    assert_codes_order_as_reference(grids + [g.mirror() for g in grids])


def reference_to_json(d):
    """``to_json`` as ``json.dumps`` of a fresh dict, the way it was
    written before it formatted the line itself."""
    return json.dumps(
        {
            "darts": d.n_darts,
            "opposite": [e ^ 1 for e in range(d.n_darts)],
            "sigma": list(d.sigma),
            "labels": [d.alphabet[abs(x) - 1] + ("" if x > 0 else "^-1") for x in d.labels],
            "outer_face_dart": d.outer_dart,
            "alphabet": list(d.alphabet),
        },
        separators=(",", ":"),
    )


def assert_json_line(d):
    """``to_json`` writes ``json.dumps``'s bytes, and ``from_json`` reads
    back the same map: ``from_json`` renumbers the darts only when the
    opposite pairs are not ``(2i, 2i + 1)``, and here they are."""
    line = d.to_json()
    assert line == reference_to_json(d)
    e = DiskDiagram.from_json(line)
    assert (e.sigma, e.labels, e.alphabet, e.outer_dart) == (d.sigma, d.labels, d.alphabet, d.outer_dart)
    assert e == d


@pytest.mark.parametrize(
    "sigma, labels, alphabet",
    [
        # read back as labels (1, -1), another diagram
        ((1, 0), (2, -2), ("a", "a")),
        # the positive label of a^-1 and the inverse of a both write "a^-1"
        ((1, 0), (2, -2), ("a", "a^-1")),
        # written as "a^-1" and "a^-1^-1", neither a name of the alphabet
        ((1, 0), (1, -1), ("a^-1",)),
        ((), (), ("b", "b")),
    ],
)
def test_constructor_rejects_names_json_cannot_carry(sigma, labels, alphabet):
    with pytest.raises(DiagramError):
        DiskDiagram(sigma, labels, alphabet, 0 if sigma else None)


def test_bool_darts_are_rejected_not_written_as_json_booleans():
    # json.dumps would write "sigma":[true,false] and "outer_face_dart":true,
    # which from_json reads back as the darts 1 and 0
    with pytest.raises(DiagramError):
        DiskDiagram((True, False), (1, -1), ("a",), True)


@pytest.mark.parametrize("gid,max_area", [(gid, 4) for gid, _a in ENUMERATED_SIZES])
def test_json_lines_match_json_dumps(galleries, gid, max_area):
    count = 0
    for d in disks_and_mirrors(galleries[gid][2], max_area):
        assert_json_line(d)
        count += 1
    assert count
    assert_json_line(DiskDiagram.single_vertex(galleries[gid][2].alphabet))


# names that json.dumps escapes: quotes, backslashes, control characters
# and non-ASCII (ensure_ascii), besides any other character, and names
# ending in "^-1", which from_json would read as an inverse
NAME_CHARS = st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028é€\U0001f600 ^-') | st.characters()
NAMES = st.text(NAME_CHARS, max_size=5) | st.text(NAME_CHARS, max_size=3).map(lambda s: s + "^-1")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (1, 1), (1, 2), None]), st.data())
def test_json_lines_escape_names_as_json_dumps(figure, data):
    """Distinct names without the suffix ^-1 round-trip through JSON; the
    constructor rejects any other alphabet."""
    d = figure_diagram(*figure) if figure else DiskDiagram.from_face_word((1, 2, -1, -2), ("a", "b"))
    names = data.draw(st.lists(NAMES, min_size=len(d.alphabet), max_size=len(d.alphabet)))
    carried = len(set(names)) == len(names) and not any(n.endswith("^-1") for n in names)
    for e in (d, d.mirror(), DiskDiagram.single_vertex(d.alphabet)):
        if carried:
            assert_json_line(DiskDiagram(e.sigma, e.labels, names, e.outer_dart))
        else:
            with pytest.raises(DiagramError):
                DiskDiagram(e.sigma, e.labels, names, e.outer_dart)
