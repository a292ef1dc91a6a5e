import pytest

from vankampen import dehn_props
from vankampen.presentation import Presentation, presentation_complex
from vankampen.diagram import DiskDiagram, boundary_path, find_shells, find_spurs
from vankampen.enumeration import EnumerationConfig, _bound_for, enumerate_diagrams, is_minimal
from vankampen.dehn_props import (
    FSequence,
    Piece,
    PropositionReport,
    big_pieces,
    brute_force_f,
    check_cells_embed,
    check_dehn,
    check_generalized_dehn,
    f_values,
    has_big_pieces,
    pieces,
    verify_proposition_bound,
)
from vankampen.gallery import figure_diagram, presentation


def test_gdehn_thm2_small_bound(galleries, corpus_thm2_6):
    _p, m, x = galleries["thm2"]
    rep = check_generalized_dehn(x, 1, 4, model=m,
                                 diagrams=[d for d in corpus_thm2_6 if d.area <= 4])
    assert rep.holds
    assert rep.scanned > 0 and not rep.unknowns


def test_gdehn_triangle_complex_holds():
    p = Presentation.build("a", ["a a a"])
    x = presentation_complex(p)
    rep = check_generalized_dehn(x, 1, 2)
    assert rep.holds
    assert len(rep.exemptions) >= 1  # the single triangle is exempt


def test_dehn_single_relator_trivial():
    p = Presentation.build("a b", ["a b a^-1 b^-1"])
    x = presentation_complex(p)
    rep = check_dehn(x, 1)
    assert rep.holds and rep.exemptions


def test_check_dehn_flags_figure1(galleries):
    _p, m, x = galleries["thm2"]
    rep = check_dehn(x, 8, model=m, diagrams=[figure_diagram(1, 2)])
    assert not rep.holds
    d, reason = rep.violations[0]
    assert d.area == 8 and "no spur and no shell" in reason


def test_violation_nesting_eq1(galleries, corpus_eq1_4):
    _p, m, x = galleries["eq1"]
    reps = {
        defn: check_generalized_dehn(x, defn, 4, model=m, diagrams=corpus_eq1_4)
        for defn in (1, 2, 3)
    }
    dehn = check_dehn(x, 4, model=m, diagrams=corpus_eq1_4)
    v1 = {d.canonical_code() for d, _ in reps[1].violations}
    v2 = {d.canonical_code() for d, _ in reps[2].violations}
    v3 = {d.canonical_code() for d, _ in reps[3].violations}
    vd = {d.canonical_code() for d, _ in dehn.violations}
    assert v1 <= v2 <= v3
    assert v3 <= vd


def test_eq1_violations_regression(galleries, corpus_eq1_4):
    """The basic area-2 counterexample plus its two branched double covers.

    The footnote's uniqueness claim fails at area 4: winding the square
    twice around a diagonal vertex gives minimal reduced disks with no
    spurs, shells, or cutcells of any definition.
    """
    p, m, x = galleries["eq1"]
    rep = check_generalized_dehn(x, 1, 4, model=m, diagrams=corpus_eq1_4)
    assert len(rep.violations) == 3
    by_area = sorted(d.area for d, _ in rep.violations)
    assert by_area == [2, 4, 4]
    basic = [d for d, _ in rep.violations if d.area == 2]
    assert basic[0] == figure_diagram(3, 1)
    winds = [d for d, _ in rep.violations if d.area == 4]
    from vankampen.enumeration import canonical_cyclic

    square = canonical_cyclic(p.word("a1 b1 a1^-1 b1^-1").letters)
    doubled = canonical_cyclic(p.word("a1 b1 a1^-1 b1^-1 a1 b1 a1^-1 b1^-1").letters)
    assert all(canonical_cyclic(d.boundary_word_ints()) == doubled for d in winds)
    assert basic and canonical_cyclic(basic[0].boundary_word_ints()) == square


def test_cutcell2_implies_cutcell1_on_disks(corpus_eq1_4):
    from vankampen.diagram import find_cutcells

    for d in corpus_eq1_4:
        c1 = {w.face for w in find_cutcells(d, 1)}
        c2 = {w.face for w in find_cutcells(d, 2)}
        c3 = {w.face for w in find_cutcells(d, 3)}
        assert c3 <= c2
        assert c2 <= c1


# ----------------------------------------------------------------------
# per-diagram memos


def scan_all(x, bound, m, ds):
    reps = [check_dehn(x, bound, model=m, diagrams=ds)]
    reps += [check_generalized_dehn(x, defn, bound, model=m, diagrams=ds) for defn in (1, 2, 3)]
    return [
        (
            rep.property_name,
            rep.scanned,
            [(d.canonical_code(), reason) for d, reason in rep.violations],
            [d.canonical_code() for d in rep.unknowns],
            len(rep.exemptions),
        )
        for rep in reps
    ]


@pytest.mark.parametrize("gid,area", [("eq1", 4), ("thm1", 3), ("thm2", 5)])
def test_scans_sharing_memos_match_fresh_copies(galleries, monkeypatch, gid, area):
    """A diagram keeps its spur-or-shell answer and its invariant bound, so
    scans after the first over one corpus read them.  Two rounds of the four
    scans over the same objects report what one round over fresh copies
    reports, and the second round asks no detector for a spur or shell."""
    _p, m, x = galleries[gid]
    ds = list(enumerate_diagrams(x, EnumerationConfig(max_area=area)))
    fresh = [DiskDiagram.from_json(d.to_json()) for d in ds]
    first = scan_all(x, area, m, ds)

    def unexpected(d):
        raise AssertionError("spur or shell asked again")

    with monkeypatch.context() as mp:
        mp.setattr(dehn_props, "find_spurs", unexpected)
        mp.setattr(dehn_props, "find_shells", unexpected)
        second = scan_all(x, area, m, ds)
    assert second == first == scan_all(x, area, m, fresh)
    assert all(scanned > 0 for _name, scanned, *_rest in first)


def test_is_minimal_memo_never_crosses_bound_objects(galleries):
    """The area-2 square over eq1 meets eq1's invariant bound, so it is
    minimal there; over a complex that also has the square's boundary as a
    relator, it is not.  Asked in turn with the model, with no model and
    over that complex, the diagram answers what a fresh copy answers, and
    keeps the bound of the last bound object it was asked about."""
    p, m, x = galleries["eq1"]
    x2 = presentation_complex(
        Presentation.build(" ".join(p.names), [r.text() for r in p.relators] + ["a1 b1 a1^-1 b1^-1"])
    )
    square = figure_diagram(3, 1)
    answers = []
    for cx, model in ((x, m), (x, None), (x2, None), (x, m), (x2, None)):
        answer = is_minimal(square, cx, model=model)
        assert answer == is_minimal(DiskDiagram.from_json(square.to_json()), cx, model=model)
        assert square._bound[0] is _bound_for(cx, model)
        answers.append(answer)
    assert answers == [True, True, False, True, False]


def test_detector_lists_are_fresh():
    p, _m = presentation("thm2")
    x = presentation_complex(p)
    d = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    assert check_dehn(x, 1, diagrams=[d]).holds
    for finder in (find_shells, find_spurs):
        found = finder(d)
        want = list(found)
        found.clear()
        found.append("junk")
        assert finder(d) == want
    assert want == [] and find_shells(d)


# ----------------------------------------------------------------------
# pieces


def test_big_pieces_thm1(galleries):
    p, _m, _x = galleries["thm1"]
    assert has_big_pieces(p)
    witnesses = big_pieces(p)
    texts = {piece.word.text() for piece in witnesses}
    assert "c1c2c3" in texts
    three = [piece for piece in witnesses if piece.word.text() == "c1c2c3"]
    rels = {piece.site_a.relator_index for piece in three} | {
        piece.site_b.relator_index for piece in three
    }
    assert rels == {0, 1}  # pentagon against triangle


def test_no_big_pieces_eq2(galleries):
    p, _m, _x = galleries["eq2"]
    assert not has_big_pieces(p)
    assert pieces(p)  # pieces exist, they are just all short


def test_no_big_pieces_constructed():
    p = Presentation.build("a b", ["a b a^-1 b^-1"])
    assert not has_big_pieces(p)


def test_proper_power_has_big_self_piece():
    p = Presentation.build("a", ["a a a"])
    assert has_big_pieces(p)


def test_pieces_symmetric_and_rotation_invariant():
    p1 = Presentation.build("a b c", ["a b a^-1 b^-1 c", "c"])
    p2 = Presentation.build("a b c", ["b a^-1 b^-1 c a", "c"])  # rotated relator
    p3 = Presentation.build("a b c", ["c^-1 b a b^-1 a^-1", "c"])  # inverted relator
    assert has_big_pieces(p1) == has_big_pieces(p2) == has_big_pieces(p3)
    lens1 = sorted(len(piece.word) for piece in pieces(p1))
    lens2 = sorted(len(piece.word) for piece in pieces(p2))
    lens3 = sorted(len(piece.word) for piece in pieces(p3))
    assert lens1 == lens2 == lens3


# ----------------------------------------------------------------------
# embedding


def test_check_cells_embed_reports(galleries):
    p1, m1, _ = galleries["thm1"]
    assert check_cells_embed(p1, m1).holds
    pe, me, _ = galleries["eq1"]
    assert check_cells_embed(pe, me).holds
    p2, m2, _ = galleries["thm2"]
    rep = check_cells_embed(p2, m2)
    assert not rep.holds and len(rep.violations) == 1
    _r, reason = rep.violations[0]
    assert "relator 0" in reason


# ----------------------------------------------------------------------
# the f recursion


def test_f_small_values_by_hand():
    seq = f_values(1, 5)
    assert seq.values == (0, 1, 4, 9, 14, 19)


def test_f_base_cases():
    for c in range(1, 7):
        seq = f_values(c, 3)
        assert seq[0] == 0 and seq[1] == 1


def test_f_matches_brute_force():
    for c in range(1, 7):
        dp = f_values(c, 12)
        brute = brute_force_f(c, 12)
        assert dp.values == brute, c


def test_f_tail_arithmetic():
    for c in range(1, 7):
        seq = f_values(c, 30)
        step = seq[c + 2] - seq[c + 1]
        for n in range(c + 2, 31):
            assert seq[n] - seq[n - 1] == step


def test_verify_proposition_bound_reports_slope():
    for c in (1, 5):
        rep = verify_proposition_bound(c, 30)
        assert rep.ok
        seq = f_values(c, 30)
        assert rep.K == seq[c + 2] - seq[c + 1] - 1
        assert rep.slope == rep.K + 1


def test_fsequence_validation():
    with pytest.raises(ValueError):
        FSequence(0, (0,))
    with pytest.raises(ValueError):
        FSequence(1, (1,))
