import random
import weakref
from array import array
from math import ceil

import pytest
from hypothesis import example, given, settings, strategies as st

from vankampen import enumeration

from vankampen.presentation import (
    Presentation,
    Word,
    cyclic_core,
    invert_ints,
    presentation_complex,
    reduce_ints,
)
from vankampen.diagram import (
    DiskDiagram,
    _face_orbit,
    _face_word_from,
    _glue,
    _map_code,
    attach_face,
    boundary_path,
    cancelling_partner,
    is_reduced,
    is_topological_disk,
    reduced_witness,
    relator_forms,
    validate,
)
from vankampen.enumeration import (
    MAX_STORED,
    AreaResult,
    EnumerationConfig,
    ResourceCapError,
    area_oracle,
    canonical_cyclic,
    dehn_table,
    disk_boundary_table,
    enumerate_diagrams,
    enumeration_summary,
    is_minimal,
    _InvariantBound,
    _bound_for,
    _core_length,
    _disk_areas,
    _forms_by_first,
    _gluings,
    _levels,
    _letter_classes,
    _lp_add,
    _lp_box,
    _lp_divide,
    _lp_mul,
    _lp_norm,
    _moves,
    _prefix_classes,
)
from vankampen.gallery import GALLERY_IDS, LATTICE_BASIS, figure_diagram, presentation
from vankampen.group_models import FreeProductModel, GroupElement, pack_point, project_z2


def test_thm2_area_one_exactly_two(galleries):
    _p, _m, x = galleries["thm2"]
    diags = list(enumerate_diagrams(x, EnumerationConfig(max_area=1)))
    assert len(diags) == 2
    words = sorted(len(d.face_word_ints(d.inner_face_indices[0])) for d in diags)
    assert words == [1, 5]  # the monogon and the pentagon


def test_eq1_contains_commutator_filling(galleries):
    p, _m, x = galleries["eq1"]
    diags = list(enumerate_diagrams(x, EnumerationConfig(max_area=2)))
    target = canonical_cyclic(p.word("a1 b1 a1^-1 b1^-1").letters)
    hits = [
        d
        for d in diags
        if d.perimeter == 4 and canonical_cyclic(d.boundary_word_ints()) == target
    ]
    assert len(hits) == 1 and hits[0].area == 2
    assert hits[0] == figure_diagram(3, 1)


def test_enumerated_diagrams_are_valid_reduced_disks(galleries, corpus_eq2_4):
    _p, _m, x = galleries["eq2"]
    for d in corpus_eq2_4:
        assert validate(d, x).ok
        assert is_reduced(d)
        assert is_topological_disk(d)


def test_enumeration_monotone_and_deterministic(galleries):
    _p, _m, x = galleries["thm2"]
    a3 = list(enumerate_diagrams(x, EnumerationConfig(max_area=3)))
    a4 = list(enumerate_diagrams(x, EnumerationConfig(max_area=4)))
    assert [d.canonical_code() for d in a4[: len(a3)]] == [d.canonical_code() for d in a3]
    again = list(enumerate_diagrams(x, EnumerationConfig(max_area=3)))
    assert [d.canonical_code() for d in again] == [d.canonical_code() for d in a3]


def test_enumeration_counts_regression(galleries, corpus_thm2_6, corpus_thm1_5,
                                       corpus_eq1_4, corpus_eq2_4):
    assert enumeration_summary(corpus_thm2_6) == {1: 2, 2: 3, 3: 10, 4: 42, 5: 198, 6: 1012}
    assert enumeration_summary(corpus_thm1_5) == {1: 2, 2: 10, 3: 80, 4: 850, 5: 10137}
    assert enumeration_summary(corpus_eq1_4) == {1: 2, 2: 8, 3: 36, 4: 226}
    assert enumeration_summary(corpus_eq2_4) == {1: 4, 2: 9, 3: 49, 4: 354}


def test_enumeration_resource_cap(galleries):
    _p, _m, x = galleries["thm2"]
    with pytest.raises(ResourceCapError):
        list(enumerate_diagrams(x, EnumerationConfig(max_area=5, max_candidates=50)))


def test_perimeter_cap(galleries):
    _p, _m, x = galleries["thm2"]
    diags = list(enumerate_diagrams(x, EnumerationConfig(max_area=3, max_perimeter=7)))
    assert diags and all(d.perimeter <= 7 for d in diags)


@pytest.mark.parametrize("gid,max_area,cap", [("eq1", 4, 4), ("eq1", 4, 6), ("thm2", 5, 7)])
def test_perimeter_cap_filters_full_output(galleries, gid, max_area, cap):
    # perimeter is not monotone under growth: eq1's [a1,b1] square has
    # perimeter 4, its one-cell parents 5
    _p, _m, x = galleries[gid]
    full = enumerate_diagrams(x, EnumerationConfig(max_area=max_area))
    capped = enumerate_diagrams(x, EnumerationConfig(max_area=max_area, max_perimeter=cap))
    expected = [d.to_json() for d in full if d.perimeter <= cap]
    assert expected and [d.to_json() for d in capped] == expected


@pytest.mark.parametrize("gid,max_area", [("thm1", 3), ("thm2", 4), ("eq1", 3), ("eq2", 3)])
def test_gluing_admission_matches_global_checks(galleries, gid, max_area):
    # the enumerator admits children without the global checks; every
    # gluing attach_face accepts must give a disk, and the pre-build
    # cancellation test must agree with reduced_witness on the child
    _p, _m, x = galleries[gid]
    forms = [w for (w, _i, _o) in relator_forms(x)]
    max_len = max(len(w) for w in forms)
    by_first = _forms_by_first(forms)
    cancelling = 0
    for parent in enumerate_diagrams(x, EnumerationConfig(max_area=max_area)):
        accepted = {}
        for pos in range(parent.perimeter):
            for w in forms:
                for k in range(1, len(w) + 1):
                    child = attach_face(parent, pos, k, w)
                    if child is not None:
                        accepted[(pos, k, w)] = child
        gluings = {(pos, k, w): c for pos, k, w, c in _gluings(parent, by_first, max_len)}
        assert gluings.keys() == accepted.keys()
        for key, child in accepted.items():
            assert is_topological_disk(child), key
            assert gluings[key] == (reduced_witness(child) is not None), key
            cancelling += gluings[key]
    assert cancelling


def test_code_before_build_matches_built_child(galleries):
    # the enumerator codes each child from _glue's raw map and its outer
    # orbit walked from the returned dart, and builds only new codes; the
    # built child's orbit starts at its least outer dart instead
    kinds = {"pocket": 0, "whole boundary": 0}
    for gid in GALLERY_IDS:
        _p, _m, x = galleries[gid]
        forms = [w for (w, _i, _o) in relator_forms(x)]
        max_len = max(len(w) for w in forms)
        by_first = _forms_by_first(forms)
        for parent in enumerate_diagrams(x, EnumerationConfig(max_area=3)):
            B = parent.perimeter
            for pos, k, w, cancels in _gluings(parent, by_first, max_len):
                if cancels:
                    continue
                sigma, labels, outer = _glue(parent, pos, k, w)
                code = _map_code(sigma, labels, _face_orbit(sigma, outer), len(x.alphabet))
                assert (x.alphabet, tuple(code)) == attach_face(parent, pos, k, w).canonical_code()
                kinds["pocket"] += k == len(w)
                kinds["whole boundary"] += k == B
    assert all(kinds.values()), kinds


# the sizes of the code-half tests in test_diagram.py
LEVEL_SIZES = [("thm2", 6), ("torusT", 6), ("thm1", 4), ("eq1", 4), ("eq2", 4), ("square", 6)]


def reference_levels(x, max_area):
    """The enumerator's loop before it keyed both code halves: one full
    ``_map_code`` per non-cancelling child, keyed by that code, and a
    built child that computes its own canonical code."""
    forms = [w for (w, _i, _o) in relator_forms(x)]
    max_len = max(len(w) for w in forms)
    by_first = _forms_by_first(forms)
    first = {}
    for w in forms:
        d = DiskDiagram.from_face_word(w, x.alphabet)
        if is_topological_disk(d) and reduced_witness(d) is None:
            first.setdefault(d.canonical_code(), d)
    level = [first[c] for c in sorted(first)]
    levels = []
    while level and len(levels) < max_area:
        levels.append(level)
        if len(levels) == max_area:
            break
        nxt = {}
        for parent in level:
            for pos, k, w, cancels in _gluings(parent, by_first, max_len):
                if cancels:
                    continue
                sigma, labels, outer = _glue(parent, pos, k, w)
                code = _map_code(sigma, labels, _face_orbit(sigma, outer), len(x.alphabet))
                if code not in nxt:
                    nxt[code] = DiskDiagram(sigma, labels, x.alphabet, outer)
        level = [nxt[c] for c in sorted(nxt)]
    return [d for level in levels for d in level]


def reference_gluings(parent, forms, max_len):
    """``_gluings`` before it started each boundary position from the
    forms' first-letter index: every form is filtered at ``k = 1``."""
    O = parent.outer_orbit()
    B = len(O)
    partners = [cancelling_partner(_face_word_from(parent, q ^ 1)) for q in O]
    for pos in range(B):
        alive = forms
        cancelling = set()
        for k in range(1, min(B, max_len) + 1):
            p = (pos + k - 1) % B
            label = parent.labels[O[p]]
            alive = [w for w in alive if len(w) >= k and w[k - 1] == label]
            if not alive:
                break
            P = partners[p]
            cut = len(P) - (k - 1)
            if cut > 0:
                cancelling.add(P[cut:] + P[:cut])
            for w in alive:
                if len(w) == k and k == B:
                    continue
                yield pos, k, w, w in cancelling


@pytest.mark.parametrize("gid,max_area", LEVEL_SIZES)
def test_unchecked_builds_and_indexed_gluings_match_references(galleries, gid, max_area):
    """Every diagram that ``_levels`` builds without the constructor's
    checks passes them and gets the same faces and area from the
    constructor, and on every parent the indexed ``_gluings`` yields what
    the unindexed loop yields, in the same order."""
    x = galleries[gid][2]
    forms = [w for (w, _i, _o) in relator_forms(x)]
    max_len = max(len(w) for w in forms)
    by_first = _forms_by_first(forms)
    assert sum(map(len, by_first.values())) == len(forms)
    for a, ws in by_first.items():
        assert ws == [w for w in forms if w[0] == a]
    built = parents = 0
    for level in _levels(x, None, max_area):
        for d in level:
            checked = DiskDiagram(d.sigma, d.labels, d.alphabet, d.outer_dart)
            assert (checked.faces, checked.face_of, checked.outer_face) == (d.faces, d.face_of, d.outer_face)
            assert (checked.inner_face_indices, checked.area) == (d.inner_face_indices, d.area)
            assert all(type(e) is int for e in d.sigma) and type(d.outer_dart) is int
            built += d.area > 1
            if d.area < max_area:
                parents += 1
                got = list(_gluings(d, by_first, max_len))
                assert got and got == list(reference_gluings(d, forms, max_len))
    assert built and parents


@pytest.mark.parametrize("gid,max_area", LEVEL_SIZES)
def test_levels_match_one_code_per_child_reference(galleries, gid, max_area):
    x = galleries[gid][2]
    got = enumerate_diagrams(x, EnumerationConfig(max_area=max_area))
    want = reference_levels(x, max_area)
    assert want
    assert [(d.canonical_code(), d.to_json()) for d in got] == [
        (d.canonical_code(), d.to_json()) for d in want
    ]


def test_deepest_level_is_built_as_it_is_consumed(galleries, monkeypatch):
    """A consumer that keeps no diagram of the deepest level holds at most
    a couple of them at any one time, while every diagram of a level that
    the next one grows from is alive until that growth is done.  Counted
    through weak references, which CPython's reference counting clears at
    once."""

    class Tracked(DiskDiagram):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(enumeration, "DiskDiagram", Tracked)
    _p, _m, x = galleries["thm2"]
    seen = {5: [], 6: []}
    most = {5: 0, 6: 0}
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=6)):
        if d.area in seen:
            seen[d.area].append(weakref.ref(d))
            for area, refs in seen.items():
                most[area] = max(most[area], sum(r() is not None for r in refs))
    del d
    assert (len(seen[5]), len(seen[6])) == (198, 1012)
    assert most[5] == 198 and most[6] <= 2


# (non-cancelling gluings, admitted children of area >= 2)
HALF_COUNTS = {("thm1", 4): (2164, 940), ("thm2", 5): (623, 253), ("eq1", 4): (578, 270)}


@pytest.mark.parametrize("gid,max_area", sorted(HALF_COUNTS))
def test_levels_walk_the_mirror_half_only_for_new_children(galleries, gid, max_area, monkeypatch):
    """``_levels`` computes the forward half once per non-cancelling
    gluing and the mirror half once per admitted child; counted under the
    names ``_levels`` calls, so the seeds' ``canonical_code`` is not."""
    _p, _m, x = galleries[gid]
    calls = {"forward": 0, "mirror": 0}

    def counted(name, half):
        def wrapper(*args):
            calls[name] += 1
            return half(*args)

        return wrapper

    monkeypatch.setattr(enumeration, "_forward_code", counted("forward", enumeration._forward_code))
    monkeypatch.setattr(enumeration, "_mirror_code", counted("mirror", enumeration._mirror_code))
    diagrams = list(enumerate_diagrams(x, EnumerationConfig(max_area=max_area)))
    forms = [w for (w, _i, _o) in relator_forms(x)]
    max_len = max(len(w) for w in forms)
    by_first = _forms_by_first(forms)
    gluings = sum(
        not cancels
        for d in diagrams
        if d.area < max_area
        for _pos, _k, _w, cancels in _gluings(d, by_first, max_len)
    )
    admitted = sum(d.area >= 2 for d in diagrams)
    assert (calls["forward"], calls["mirror"]) == (gluings, admitted)
    assert (gluings, admitted) == HALF_COUNTS[gid, max_area]


def test_area_oracle_trivial_and_obstructed(galleries):
    p, m, x = galleries["thm2"]
    assert area_oracle(p.word(""), x, bound=3).value == 0
    res = area_oracle(p.word("a"), x, bound=3, model=m)
    assert res.value is None and res.certified_exact


def test_area_oracle_rejects_unknown_method_on_trivial_words(galleries):
    _p, _m, x = galleries["thm2"]
    with pytest.raises(ValueError, match="bogus"):
        area_oracle((1, -1), x, 3, method="bogus")
    with pytest.raises(ValueError, match="relator_bsf"):
        area_oracle((), x, 3, method="relator_bsf")


# each gallery below area one, and <a, b | > at a positive bound: with no
# 2-cell, no word has a filling
BELOW_AREA_ONE = [(gid, bound) for bound in (0, -1) for gid in GALLERY_IDS] + [("free", 3)]


@pytest.mark.parametrize(
    "gid, bound", BELOW_AREA_ONE, ids=[f"{bound}-{gid}" for gid, bound in BELOW_AREA_ONE]
)
def test_oracles_certify_no_filling_below_area_one(galleries, gid, bound):
    if gid == "free":
        p = Presentation.build("a b", [])
        m, x = None, presentation_complex(p)
    else:
        p, m, x = galleries[gid]
    words = [r.letters for r in p.relators] + [(1,), (1, 2, -1, -2)]
    for w in words:
        bfs = area_oracle(w, x, bound=bound, method="relator_bfs", model=m)
        ds = area_oracle(w, x, bound=bound, method="diagram_search")
        assert bfs.value is ds.value is None, w
        assert bfs.certified_exact and ds.certified_exact, w
        assert ds.note == "no filling within bound", w


def test_area_oracle_commutator_both_methods(galleries):
    p, m, x = galleries["thm2"]
    w = p.word("a b a^-1 b^-1")
    bfs = area_oracle(w, x, bound=4, method="relator_bfs", model=m)
    ds = area_oracle(w, x, bound=4, method="diagram_search")
    assert bfs.value == ds.value == 2
    assert bfs.certified_exact and ds.certified_exact


def test_area_oracle_eq1_commutator(galleries):
    p, m, x = galleries["eq1"]
    res = area_oracle(p.word("a1 b1 a1^-1 b1^-1"), x, bound=4, model=m)
    assert res.value == 2 and res.certified_exact


def test_oracles_agree_on_enumerated_boundaries(galleries, corpus_eq1_4):
    p, m, x = galleries["eq1"]
    seen = set()
    for d in corpus_eq1_4:
        if d.area > 4:
            continue
        key = canonical_cyclic(d.boundary_word_ints())
        if key in seen:
            continue
        seen.add(key)
        bfs = area_oracle(key, x, bound=4, method="relator_bfs", model=m)
        ds = area_oracle(key, x, bound=4, method="diagram_search")
        if bfs.certified_exact and ds.certified_exact:
            assert bfs.value == ds.value, key
        assert ds.value is not None and ds.value <= d.area


CONJUGATED_RELATORS = (-1, 3, 2, 2, -1, 2, 3, -2)  # torusT: r0 . b1 r1 b1^-1


def test_diagram_search_fills_conjugated_relators(galleries):
    _p, _m, x = galleries["torusT"]
    ds = area_oracle(CONJUGATED_RELATORS, x, bound=2, method="diagram_search")
    assert ds.certified_exact and ds.value == 2


def test_oracles_agree_on_conjugated_relators(galleries):
    _p, m, x = galleries["torusT"]
    ds = area_oracle(CONJUGATED_RELATORS, x, bound=2, method="diagram_search")
    bfs = area_oracle(CONJUGATED_RELATORS, x, bound=2, method="relator_bfs", model=m)
    assert (bfs.value, bfs.certified_exact) == (ds.value, ds.certified_exact)


@st.composite
def conjugated_products(draw):
    """(gallery, word, k): a product of k <= 3 relator forms, each conjugated
    by a word of length <= 2, so the word has a filling of area <= k."""
    gid = draw(st.sampled_from(["torusT", "thm2", "eq1"]))
    p, _m = presentation(gid)
    forms = [w for w, _i, _o in relator_forms(presentation_complex(p))]
    n = len(p.names)
    letter = st.integers(min_value=-n, max_value=n).filter(bool)
    factors = draw(st.lists(
        st.tuples(st.lists(letter, max_size=2), st.sampled_from(forms)), min_size=1, max_size=3
    ))
    word = [a for c, f in factors for a in (*c, *f, *invert_ints(c))]
    return gid, reduce_ints(word), len(factors)


@settings(max_examples=60, deadline=None)
@given(conjugated_products())
def test_relator_bfs_respects_known_fillings(galleries, case):
    gid, word, k = case
    _p, m, x = galleries[gid]
    bfs = area_oracle(word, x, bound=k, method="relator_bfs", model=m)
    assert bfs.certified_exact and bfs.value is not None and bfs.value <= k, bfs
    ds = area_oracle(word, x, bound=k, method="diagram_search")
    assert ds.certified_exact and ds.value == bfs.value, (bfs, ds)


def _all_cuts_area(letters, x, bound, memo):
    """diagram_search's value by brute force: every ordered split of every
    rotation, with no class filter (``memo`` may be shared per complex and
    bound, since the value of a word depends on nothing else)."""
    table = disk_boundary_table(x, bound)

    def best(wc):
        if wc == ():
            return 0
        if wc in memo:
            return memo[wc]
        value = table.get(wc)
        m = len(wc)
        for rot in range(m):
            rotated = wc[rot:] + wc[:rot]
            for cut in range(1, m):
                u = canonical_cyclic(rotated[:cut])
                v = canonical_cyclic(rotated[cut:])
                a = best(u)
                if a is None:
                    continue
                b = best(v)
                if b is None:
                    continue
                if value is None or a + b < value:
                    value = a + b
        if value is not None and value > bound:
            value = None
        memo[wc] = value
        return value

    return best(canonical_cyclic(letters))


# the brute force takes seconds per word past 10 letters (about 10 s for
# one 15-letter eq2 word), so the corpus stops there
REFERENCE_MAX_LENGTH = 10


def _split_search_corpus():
    """(gallery, complex, word, bound): the canonical boundary words of the
    enumerated disks, the words with one letter of them inverted, and the
    products of two of them (which may need a split), each at the
    gallery's area bound."""
    out = []
    for gid, n in (("eq1", 3), ("torusT", 4), ("eq2", 3)):
        p, _m = presentation(gid)
        x = presentation_complex(p)
        words = {canonical_cyclic(d.boundary_word_ints())
                 for d in enumerate_diagrams(x, EnumerationConfig(max_area=n))}
        flips = {canonical_cyclic(w[:k] + (-w[k],) + w[k + 1:])
                 for w in words for k in (0, len(w) // 2)}
        products = {canonical_cyclic(u + v) for u in words for v in words}
        out += [(gid, x, w, n) for w in sorted(words | flips | products)
                if 0 < len(w) <= REFERENCE_MAX_LENGTH]
    return out


def test_diagram_search_matches_all_cuts_reference():
    memos = {}
    unfillable = glued = 0
    for gid, x, w, n in _split_search_corpus():
        ds = area_oracle(w, x, bound=n, method="diagram_search")
        ref = _all_cuts_area(w, x, n, memos.setdefault((gid, n), {}))
        assert (ds.value, ds.certified_exact) == (ref, True), (gid, w)
        unfillable += ref is None
        glued += ref is not None and w not in disk_boundary_table(x, n)
    assert unfillable and glued


def test_prefix_classes_are_zero_on_relators(galleries):
    for gid in ("thm2", "thm1", "eq1", "eq2", "torusT"):
        _p, _m, x = galleries[gid]
        letter_class = _letter_classes(x)
        for r in x.face_words():
            assert not any(_prefix_classes(r.letters, letter_class)[-1]), (gid, r)
    p, _m, x = galleries["eq2"]
    letter_class = _letter_classes(x)
    assert any(_prefix_classes(p.word("a1").letters, letter_class)[-1])
    # a commutator's exponent vector is zero, so its ends share a class
    classes = _prefix_classes(p.word("a1 b1 a1^-1 b1^-1").letters, letter_class)
    assert len(classes) == 5 and classes[0] == classes[4] != classes[1]


def a2b2_a3b3():
    """``<a, b | [a^2,b^2], [a^3,b^3]>`` and its complex, whose own bound is
    not pinned."""
    p = Presentation.build("a b", ["a a b b a^-1 a^-1 b^-1 b^-1",
                                   "a a a b b b a^-1 a^-1 a^-1 b^-1 b^-1 b^-1"])
    return p, presentation_complex(p)


def exponent_sum_bound(x):
    """The bound with every generator projected to the origin: its rows
    are the exponent sums, and it is not pinned over any gallery."""
    return enumeration._cached_bound(x, ((0, 0),) * len(x.alphabet))


def _pi_path(word, pi_by_letter):
    """The projected boundary path of a word, from the origin."""
    xx = yy = 0
    pts = [(0, 0)]
    for v in word:
        px, py = pi_by_letter[abs(v)]
        if v > 0:
            xx += px
            yy += py
        else:
            xx -= px
            yy -= py
        pts.append((xx, yy))
    return pts


def _area_row(word, pi_by_letter):
    """Twice the signed area of a closed projected path (shoelace)."""
    pts = _pi_path(word, pi_by_letter)
    assert pts[-1] == (0, 0)
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


@st.composite
def words_and_closures(draw):
    """(gallery, word, closed): a random word, and the word followed by the
    inverse of a shuffle of itself, whose projected path closes."""
    gid = draw(st.sampled_from(["torusT", "eq1", "thm1"]))
    n = len(presentation(gid)[0].names)
    word = draw(st.lists(st.integers(min_value=-n, max_value=n).filter(bool),
                         min_size=1, max_size=10))
    shuffled = draw(st.permutations(word))
    return gid, tuple(word), tuple(word) + invert_ints(shuffled)


@settings(max_examples=80, deadline=None)
@given(words_and_closures())
def test_fox_vector_rows_match_direct_counts(galleries, case):
    """The rows read off the Fox vector are the exponent counts and the
    shoelace area of the projected path, and an open path has no bound."""
    gid, word, closed = case
    p, m, x = galleries[gid]
    hb, plain = _bound_for(x, m), exponent_sum_bound(x)
    pi_by_letter = {g: m.pi(name) for g, name in enumerate(p.names, start=1)}
    for w in (word, closed):
        counts = tuple(sum((v == g) - (v == -g) for v in w) for g in range(1, len(p.names) + 1))
        assert plain._rows(plain._walk(w)) == (*counts, 0)
        starts = []
        rows = hb._rows(hb._walk(w, starts))
        # the prefix point before each letter, packed: the projected path so far
        point, points = (0, 0), []
        for v in w:
            points.append(pack_point(*point))
            px, py = pi_by_letter[abs(v)]
            point = (point[0] + px, point[1] + py) if v > 0 else (point[0] - px, point[1] - py)
        assert starts == points
        if project_z2(Word(w, p.names), m) != (0, 0):
            assert rows is None and hb.bound(w) is None
        else:
            assert rows == (*counts, _area_row(w, pi_by_letter))


def test_relator_bfs_refutes_by_astar_or_word_problem(galleries):
    p, m, x = galleries["eq1"]
    # free-factor commutator: invisible to the model's projection, nontrivial
    # in the model, and seen by the complex's own projection
    w = p.word("c2 c3 c2^-1 c3^-1")
    res = area_oracle(w, x, bound=2, method="relator_bfs", model=m)
    assert res.value is None and res.certified_exact and res.expanded == 0
    assert res.note.startswith("model word problem")
    res = area_oracle(w, x, bound=2, method="relator_bfs")
    assert res.value is None and res.certified_exact and res.expanded == 0
    assert res.note.startswith("abelian obstruction")
    # the unpinned bound leaves [a, b] open, and A* exhausts its moves
    p, x = a2b2_a3b3()
    res = area_oracle(p.word("a b a^-1 b^-1"), x, bound=2, method="relator_bfs")
    assert res.value is None and res.certified_exact and res.expanded > 0
    assert res.note == "no filling within bound"


def test_relator_bfs_store_cap_gives_up_uncertified(monkeypatch):
    # on the unpinned bound nothing refutes [a, b] at bound 4, and A*
    # stores words far faster than it expands them
    p, x = a2b2_a3b3()
    monkeypatch.setattr(enumeration, "MAX_STORED", 1000)
    res = area_oracle(p.word("a b a^-1 b^-1"), x, bound=4, method="relator_bfs")
    assert res.value is None and not res.certified_exact
    assert res.note == "store cap hit" and res.expanded < 1000


def test_astar_counts_its_bound_cache_lookups_against_the_store_cap():
    """On a bound that is not pinned, each scored move looks its vector up
    in the bound's cache and may keep an entry there, and the lookups
    outnumber the words A* stores.  A* counts them against its store cap,
    so its lookups, and with them the cache's growth, pass the cap by at
    most one expansion's (one per form and position, in a word of at most
    40 letters below bound 4), and it gives up after the same expansions
    whatever the cache held before.  Counting the words alone lets this
    search make 6,480 lookups under a cap of 3,000."""
    p, x = a2b2_a3b3()
    letters = canonical_cyclic(p.word("a b a^-1 b^-1").letters)
    cap, step = 3000, len(relator_forms(x)) * (len(letters) + 3 * max(map(len, x.faces)))
    results = []
    for hb in (_InvariantBound(x, _bound_for(x, None).pi), _bound_for(x, None)):
        h0 = hb.bound(letters)
        cached, looked = len(hb._cache), hb.lookups
        res = enumeration._astar(letters, h0, hb, 4, cap)
        assert res.note == "store cap hit" and not res.certified_exact
        assert len(hb._cache) - cached <= hb.lookups - looked <= cap + step
        results.append(res)
    assert results[0] == results[1]


# what relator_bfs answers before A* runs, by its notes
CERTIFICATE_NOTES = ("abelian obstruction", "lower bound", "filling meets the invariant lower bound")


def test_auto_without_a_model_answers_as_relator_bfs_or_by_diagram_search(galleries):
    """Without a model, at bound <= 6, ``auto`` gives ``relator_bfs``'s own
    answer when the certificates or its capped A* settle the word, and
    otherwise answers with ``diagram_search``, with the value and the
    certified flag of ``relator_bfs``.  Over the boundary words of thm1 and
    eq1 to area 2 and those of perimeter at most 12 over the unpinned
    ``<a, b | [a^2,b^2], [a^3,b^3]>`` to area 2, each at its area and one
    below, eq1's free-factor commutator at bound 2 and a word with a
    nonzero exponent sum.  The gallery words are certified before A*; the
    unpinned words take all three routes.  Their A* scores each move by a
    cache lookup, about 400 per expansion, which it counts against its
    store cap, so it has room to answer at bound 4 (2,000) and not below;
    they are asked at bound 4 too."""
    routes = {"certificate": 0, "astar": 0, "diagram_search": 0}
    complexes = [(gid, galleries[gid][0], galleries[gid][2], None) for gid in ("thm1", "eq1")]
    complexes.append(("unpinned", *a2b2_a3b3(), 12))
    for gid, p, x, perimeter in complexes:
        words = {}
        for d in enumerate_diagrams(x, EnumerationConfig(max_area=2, max_perimeter=perimeter)):
            words.setdefault(canonical_cyclic(d.boundary_word_ints()), d.area)
        cases = [(w, b) for w, a in words.items() for b in (a - 1, a)]
        if gid == "unpinned":
            cases += [(w, 4) for w in words]
        if gid == "eq1":
            cases += [(p.word("c2 c3 c2^-1 c3^-1").letters, 2), (p.word("a1 c2").letters, 2)]
        for w, b in cases:
            bfs = area_oracle(w, x, bound=b, method="relator_bfs")
            auto = area_oracle(w, x, bound=b)
            if auto.method == "relator_bfs":
                assert auto == bfs, (gid, w, b)
                route = "certificate" if bfs.note.startswith(CERTIFICATE_NOTES) else "astar"
            else:
                assert auto.method == "diagram_search" and not bfs.note.startswith(CERTIFICATE_NOTES)
                assert (auto.value, auto.certified_exact) == (bfs.value, bfs.certified_exact)
                route = "diagram_search"
            assert route == "certificate" or gid == "unpinned", (gid, w, b)
            routes[route] += 1
    assert all(routes.values()), routes


def test_auto_caps_astar_by_the_bound_only_without_a_model(galleries, monkeypatch):
    """Without a model, at bound <= 4, ``auto`` gives A* a store cap of
    2,000 words, shrunk tenfold per area below 4; at bounds 5 and 6, with
    a model, past bound 6 and under ``relator_bfs``, A* keeps
    ``MAX_STORED``.  An A* that gives up hands over to ``diagram_search``
    at bound <= 6 only."""
    p, m, x = galleries["thm2"]
    caps = []

    def astar(letters, h0, hb, bound, cap):
        caps.append(cap)
        return AreaResult(None, False, "relator_bfs", note="store cap hit")

    monkeypatch.setattr(enumeration, "_perfect_probe", lambda letters, h0, hb: None)
    monkeypatch.setattr(enumeration, "_astar", astar)
    monkeypatch.setattr(enumeration, "_diagram_search", lambda letters, x, bound: "searched")
    w = p.word("a b a^-1 b^-1")
    assert [area_oracle(w, x, bound=b) for b in range(2, 7)] == ["searched"] * 5
    assert caps == [20, 200, 2_000, MAX_STORED, MAX_STORED] and MAX_STORED == 200_000
    caps.clear()
    assert area_oracle(w, x, bound=3, model=m) == "searched"
    assert area_oracle(w, x, bound=3, method="relator_bfs").note == "store cap hit"
    assert area_oracle(w, x, bound=7).note == "store cap hit"
    assert caps == [MAX_STORED] * 3


def test_auto_above_bound_6_runs_relator_bfs(galleries, monkeypatch):
    """Past bound 6, ``auto`` without a model runs A* as ``relator_bfs``
    does, even with the probe off, and never enumerates."""
    p, _m, x = galleries["thm2"]
    monkeypatch.setattr(enumeration, "_perfect_probe", lambda letters, h0, hb: None)
    monkeypatch.setattr(enumeration, "_diagram_search", None)
    w = p.word("a b a^-1 b^-1")
    res = area_oracle(w, x, bound=7)
    assert res == area_oracle(w, x, bound=7, method="relator_bfs")
    assert res.method == "relator_bfs" and res.value == 2 and res.expanded > 0


def test_auto_falls_back_on_diagram_search_when_astar_gives_up(galleries, monkeypatch):
    """With a model, ``auto`` answers with ``diagram_search`` when both
    the probe and A* give up, here at budgets too small to start."""
    p, m, x = galleries["thm2"]
    monkeypatch.setattr(enumeration, "PROBE_NODE_BUDGET", 0)
    monkeypatch.setattr(enumeration, "MAX_STORED", 1)
    w = p.word("a b a^-1 b^-1")
    bfs = area_oracle(w, x, bound=4, method="relator_bfs", model=m)
    assert not bfs.certified_exact and bfs.note == "store cap hit"
    assert area_oracle(w, x, bound=4, model=m) == AreaResult(2, True, "diagram_search")


def test_is_minimal_examples(galleries):
    p, m, x = galleries["thm2"]
    assert is_minimal(figure_diagram(1, 2), x, model=m) is True
    assert is_minimal(DiskDiagram.from_face_word(p.relators[0].letters, p.names), x, model=m) is True


def test_is_minimal_rejects_cancellable_pair(galleries):
    p, m, x = galleries["thm2"]
    P = DiskDiagram.from_face_word(p.relators[0].letters, p.names)
    O = P.outer_orbit()
    B = len(O)
    mirror = None
    for pos in range(B):
        w_full = tuple(P.labels[O[(pos + t) % B]] for t in range(B))
        cand = attach_face(P, pos, 1, w_full)
        if cand is not None and not is_reduced(cand):
            mirror = cand
            break
    assert mirror is not None
    # boundary is freely trivial, so the true area is 0 < 2
    assert is_minimal(mirror, x, model=m) is False


def test_dehn_table_values(galleries):
    p, m, x = galleries["thm2"]

    def family(n):
        from vankampen.presentation import CyclicWord

        letters = (1,) * n + (2,) * n + (-1,) * n + (-2,) * n
        return CyclicWord(letters, p.names)

    rows = dehn_table(x, family, range(1, 4), bound=18, model=m)
    assert [(r.n, r.word_length, r.area.value) for r in rows] == [
        (1, 4, 2),
        (2, 8, 8),
        (3, 12, 18),
    ]
    assert all(r.area.certified_exact for r in rows)


def lattice_commutator(gid, n):
    """``[u^n, v^n]`` for the gallery's lattice-basis words ``u`` and ``v``."""
    p, _m = presentation(gid)
    u, v = (p.word(t).letters for t in LATTICE_BASIS[gid])
    return u * n + v * n + invert_ints(u) * n + invert_ints(v) * n


# Area([u^n, v^n]) / n^2: each lattice square takes two cells, and four
# over eq2, whose pentagon is split into three triangles
AREA_PER_SQUARE = {"thm2": 2, "thm1": 2, "eq1": 2, "eq2": 4, "torusT": 2}

QUADRATIC_AREA_CASES = (
    [(gid, n) for gid in GALLERY_IDS for n in (1, 2, 3)]
    + [pytest.param(gid, 6, marks=pytest.mark.slow) for gid in GALLERY_IDS]
    + [pytest.param(gid, 8, marks=pytest.mark.slow) for gid in ("thm2", "thm1")]
)


@pytest.mark.parametrize("gid,n", QUADRATIC_AREA_CASES)
def test_commutator_powers_have_quadratic_area(galleries, gid, n):
    _p, m, x = galleries[gid]
    area = AREA_PER_SQUARE[gid] * n * n
    res = area_oracle(lattice_commutator(gid, n), x, bound=area, method="relator_bfs", model=m)
    assert (res.value, res.certified_exact) == (area, True), res
    # the probe's node count, as the eager-successor probe gave it: one
    # node per face, so it never backtracks on these words
    assert res.expanded == area, res


def test_disk_boundary_table_contains_relators(galleries):
    p, _m, x = galleries["thm2"]
    table = disk_boundary_table(x, 2)
    for r in p.relators:
        assert table[canonical_cyclic(r.letters)] == 1


def test_enumerator_finds_figure1_at_area8(galleries):
    # the 2x2 commutator grid (area 8) must be produced by the enumerator
    _p, _m, x = galleries["thm2"]
    found = False
    target = figure_diagram(1, 2)
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=8)):
        if d.area == 8 and d == target:
            found = True
            break
    assert found


def test_bound_cache_keyed_by_model_content():
    from vankampen.enumeration import _bound_for

    (p1, m1), (p2, m2) = presentation("eq1"), presentation("eq1")
    assert m1 is not m2
    assert _bound_for(presentation_complex(p1), m1) is _bound_for(presentation_complex(p2), m2)
    # a valid torusT model with another lattice projection gets its own bound
    p, m = presentation("torusT")
    x = presentation_complex(p)
    lattice = GroupElement.lattice
    skew = FreeProductModel(
        p, 2, 0, {"a1": lattice((2, 0)), "b1": lattice((0, 1)), "c1": lattice((2, -1))}
    )
    assert _bound_for(x, skew) is not _bound_for(x, m)
    # the enumerated-disk table is shared the same way, and kept per bound
    x1, x2 = presentation_complex(p1), presentation_complex(p2)
    assert x1 is not x2
    assert disk_boundary_table(x1, 2) is disk_boundary_table(x2, 2)
    assert disk_boundary_table(x1, 3) is not disk_boundary_table(x1, 2)


def fresh_disk_table(x, bound):
    """``{canonical_cyclic(boundary): least area}`` from one enumeration."""
    table = {}
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=bound)):
        table.setdefault(canonical_cyclic(d.boundary_word_ints()), d.area)
    return table


def test_disk_tables_share_one_stream_per_complex():
    """Bounds asked out of order over one complex read one level stream,
    enumerated only as far as the largest bound so far, and each bound's
    table is the one its own enumeration gives, in the same order."""
    disk_boundary_table.cache_clear()
    _disk_areas.cache_clear()
    for gid in ("torusT", "eq1"):
        (p1, _m1), (p2, _m2) = presentation(gid), presentation(gid)
        x1, x2 = presentation_complex(p1), presentation_complex(p2)
        assert x1 is not x2 and _disk_areas(x1) is _disk_areas(x2)
        for bound, read in ((3, 3), (1, 3), (5, 5), (2, 5)):
            table = disk_boundary_table(x2 if bound % 2 else x1, bound)
            assert list(table.items()) == list(fresh_disk_table(x1, bound).items()), (gid, bound)
            assert _disk_areas(x1).read == read, (gid, bound)


def test_interrupted_disk_table_starts_afresh(galleries, monkeypatch):
    """A table whose enumeration is interrupted leaves no partial level
    behind: the next ask gives the full table."""
    _p, _m, x = galleries["eq1"]
    disk_boundary_table.cache_clear()
    _disk_areas.cache_clear()
    disk_boundary_table(x, 1)
    calls = []

    def interrupted(letters):
        calls.append(letters)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return canonical_cyclic(letters)

    monkeypatch.setattr(enumeration, "canonical_cyclic", interrupted)
    with pytest.raises(KeyboardInterrupt):
        disk_boundary_table(x, 3)
    monkeypatch.undo()
    assert disk_boundary_table(x, 3) == fresh_disk_table(x, 3)


@st.composite
def closed_words(draw):
    """(gallery, word): a random word followed by the inverse of a shuffle
    of itself, so that its projected path closes under any model, with up
    to two relator forms spliced in, each conjugated by a word of length
    at most 2."""
    gid = draw(st.sampled_from(GALLERY_IDS))
    p, _m = presentation(gid)
    forms = [w for w, _i, _o in relator_forms(presentation_complex(p))]
    n = len(p.names)
    letter = st.integers(min_value=-n, max_value=n).filter(bool)
    word = draw(st.lists(letter, max_size=4))
    word += invert_ints(draw(st.permutations(word)))
    factors = draw(st.lists(
        st.tuples(st.lists(letter, max_size=2), st.sampled_from(forms)), max_size=2
    ))
    for c, f in factors:
        i = draw(st.integers(min_value=0, max_value=len(word)))
        word[i:i] = [*c, *f, *invert_ints(c)]
    return gid, tuple(word)


@settings(max_examples=50, deadline=None)
@given(closed_words(), st.data())
def test_bound_invariant_under_sign_and_translation(galleries, case, data):
    """The bound's cache is keyed by the Fox vector up to sign and
    translation, which is exact only if the uncached bound agrees on a
    closed word's rotations, its inverse and the word with a cancelling
    pair inserted, and on each scored move and its canonical form: with
    the model's projection, the complex's own and the exponent sums alone,
    which is not pinned."""
    gid, word = case
    _p, m, x = galleries[gid]
    n = len(x.alphabet)
    for hb in (_bound_for(x, m), _bound_for(x, None), exponent_sum_bound(x)):
        def uncached(w):
            return hb._bound(hb._walk(w))[0]

        h = uncached(word)
        assert hb.bound(word) == h
        for r in range(1, len(word)):
            assert uncached(word[r:] + word[:r]) == h, r
        assert uncached(invert_ints(word)) == h
        i = data.draw(st.integers(min_value=0, max_value=len(word)))
        a = data.draw(st.integers(min_value=-n, max_value=n).filter(bool))
        assert uncached(word[:i] + (a, -a) + word[i:]) == h
        # every insertion of two drawn forms (an uncached bound can take
        # milliseconds, and the longest galleries have 36 forms)
        picked = data.draw(st.sets(st.sampled_from([w for w, _t, _s in hb.forms]), min_size=1, max_size=2))
        cur = canonical_cyclic(word)
        for h2, i, w in _moves(cur, hb):
            if w in picked:
                assert h2 == uncached(canonical_cyclic(cur[:i] + w + cur[i:])), (i, w)


@settings(max_examples=50, deadline=None)
@given(closed_words())
def test_graded_solution_solves_the_system(galleries, case):
    """The graded solve checks only the reduced rows it did not use; every
    solution it calls "ok", multiplied through the coefficient matrix,
    gives back the word's Fox vector."""
    gid, word = case
    _p, m, x = galleries[gid]
    hb = _bound_for(x, m)
    for w in (word, invert_ints(word), word[1:] + word[:1]):
        e = hb._split(hb._walk(w))
        res = hb._solve_laurent_system(e)
        if res[0] != "ok":
            continue
        assert res[1] == sum(_lp_norm(v) for v in res[2])
        for g, row in enumerate(hb.eq_matrix):
            acc = {}
            for coeff, v in zip(row, res[2]):
                acc = _lp_add(acc, _lp_mul(coeff, v))
            assert acc == e[g], (w, g)


@st.composite
def relator_products(draw):
    """(gallery, word): a product of up to three relator forms, each
    conjugated by a word of length at most 2, freely reduced, so that the
    graded system has a solution under the gallery's model."""
    gid = draw(st.sampled_from(GALLERY_IDS))
    p, _m = presentation(gid)
    forms = [w for w, _i, _o in relator_forms(presentation_complex(p))]
    n = len(p.names)
    letter = st.integers(min_value=-n, max_value=n).filter(bool)
    factors = draw(st.lists(
        st.tuples(st.lists(letter, max_size=2), st.sampled_from(forms)), max_size=3
    ))
    return gid, reduce_ints([a for c, f in factors for a in (*c, *f, *invert_ints(c))])


def scored_moves(cur, hb):
    """The moves ``_moves`` yields for ``cur``, and how many times it
    called ``vector_bound`` to score them."""
    calls = []

    def counted(fox):
        calls.append(fox)
        return _InvariantBound.vector_bound(hb, fox)

    hb.vector_bound = counted
    try:
        moves = list(_moves(cur, hb))
    finally:
        del hb.vector_bound
    return moves, len(calls)


@settings(max_examples=60, deadline=None)
@given(st.one_of(relator_products(), closed_words()))
def test_pinned_move_scores_match_vector_bound(galleries, case):
    """On a pinned bound, every move of every form at every position of a
    feasible word is scored from the word's graded solution, without
    ``vector_bound``, and the score is ``vector_bound`` of the inserted
    word; an infeasible word's moves are all infeasible.  No solve on the
    way returns "unknown"."""
    gid, word = case
    _p, m, x = galleries[gid]
    hb = _bound_for(x, m)
    assert hb.pinned
    cur = canonical_cyclic(word)
    moves, calls = scored_moves(cur, hb)
    assert len(moves) == len(hb.forms) * len(cur)
    if hb.bound(cur) is None:
        assert all(h is None for h, _i, _w in moves)
    else:
        assert calls == 0
    for h, i, w in moves:
        fox = hb._walk(cur[:i] + w + cur[i:])
        assert h == hb.vector_bound(fox), (i, w)
        assert hb._solve_laurent_system(hb._split(fox))[0] != "unknown"


def a2b2_a3b3_bound():
    """The bound of ``<a, b | [a^2,b^2], [a^3,b^3]>`` with a -> (1, 0) and
    b -> (0, 1): every coefficient of its graded system has four or six
    terms, so no pivot and no division row pins a column."""
    p, x = a2b2_a3b3()
    return p, _InvariantBound(x, ((1, 0), (0, 1)))


def zero_vector_entry(hb):
    """The zero Fox vector's entry computed by the solves: the graded
    solve's bound and solution bytes when it is "ok", else the plain
    solve's bound and no solution."""
    res = hb._solve_laurent_system(hb._split({}))
    if res[0] == "ok":
        flat = [v for j, col in enumerate(res[2]) for k, c in col.items() for v in (j, k, c)]
        return 0, 1, (res[1], array("q", flat).tobytes())
    return 0, 1, (ceil(hb._solve(hb._rows({}))), None)


def test_own_projection_meets_every_disk_as_the_model_does(
    galleries, corpus_thm2_6, corpus_thm1_5, corpus_eq1_4, corpus_eq2_4
):
    """The complex's own projection (``_bound_for(x, None)``) pins every
    gallery's bound, and on each enumerated disk (thm2 and torusT to area
    6, thm1, eq1 and eq2 to area 4) its bound is the disk's area and the
    model's bound.  Over ``<a, b | [a^2,b^2], [a^3,b^3]>``, whose own bound
    is not pinned, the bound stays at most each disk's area to area 2."""
    corpora = {"thm2": corpus_thm2_6, "thm1": [d for d in corpus_thm1_5 if d.area <= 4],
               "eq1": corpus_eq1_4, "eq2": corpus_eq2_4,
               "torusT": list(enumerate_diagrams(galleries["torusT"][2], EnumerationConfig(max_area=6)))}
    checked = 0
    for gid, ds in corpora.items():
        _p, m, x = galleries[gid]
        own, model = _bound_for(x, None), _bound_for(x, m)
        assert own.pinned and own.pi != model.pi, gid
        for d in ds:
            w = d.boundary_word_ints()
            assert own.bound(w) == d.area == model.bound(w), (gid, d.to_json())
            checked += 1
    assert checked == 3058
    _p, x = a2b2_a3b3()
    own = _bound_for(x, None)
    assert not own.pinned
    ds = list(enumerate_diagrams(x, EnumerationConfig(max_area=2)))
    assert len(ds) == 140
    for d in ds:
        assert own.bound(d.boundary_word_ints()) <= d.area, d.to_json()


# presentations whose own projection's bound reads words of fewer than
# MIN_WALK letters: none at all (the first) or 559 (the second)
SHORT_WALK_PRESENTATIONS = [
    ["a5^-1 a6 a4", "a3^-1 a4 a2 a1", "a5 a2^-1 a3^-1 a4^-1", "a4^-1 a5 a2", "a5^-1 a3^-1 a2"],
    ["a4 a1^-1 a3", "a6 a1 a2^-1 a5^-1 a6", "a3 a6 a3", "a2 a3 a6 a2 a6", "a3^-1 a6 a1^-1 a4 a1^-1"],
]


@pytest.mark.parametrize("relators", SHORT_WALK_PRESENTATIONS, ids=["none", "559"])
def test_own_projection_falls_back_to_zero_when_its_bound_reads_short_words(relators):
    """With many relators the complex's own projection can take large y
    steps, and its bound's ``_max_len`` falls below ``MIN_WALK`` letters
    (or below zero, so that it reads no word).  Then ``_bound_for`` projects
    to the origin, whose bound reads any word, and the oracles answer as
    the exponent-sum bound always did."""
    p = Presentation.build("a1 a2 a3 a4 a5 a6", relators)
    x = presentation_complex(p)
    classes = _letter_classes(x)
    own = tuple((sum(c), sum(k * v for k, v in enumerate(c, 1)))
                for c in map(classes.__getitem__, range(1, 7)))
    assert any(own) and enumeration._cached_bound(x, own)._max_len < enumeration.MIN_WALK
    assert _bound_for(x, None).pi == ((0, 0),) * 6
    r0, r1 = (r.letters for r in p.relators[:2])
    commutator = p.word("a1 a2 a1^-1 a2^-1").letters
    for word, bound, answer in ((r0, 1, 1), (r0 + r1, 2, 2), (commutator, 3, None), ((1,), 3, None)):
        for method in ("auto", "relator_bfs", "diagram_search"):
            res = area_oracle(word, x, bound=bound, method=method)
            assert (res.value, res.certified_exact) == (answer, True), (word, method)


def test_pinned_exactly_when_no_solve_is_unknown(galleries):
    """A pinned bound's graded solve never returns "unknown" (the zero
    vector, any word's, solves to zero); on a bound with a graded system
    that is not pinned, the zero vector already returns "unknown".  Every
    gallery's bound is pinned with its model's projection and with its
    own, and not with the exponent sums alone.  On fresh bounds, the zero
    vector's entry, which ``_bound`` gives without a solve, is the one the
    solves give."""
    for gid in GALLERY_IDS:
        _p, m, x = galleries[gid]
        for hb in (_bound_for(x, m), _bound_for(x, None)):
            assert hb.pinned, gid
            assert hb._solve_laurent_system(hb._split({})) == ("ok", 0, [{}] * hb.n)
        plain = exponent_sum_bound(x)
        assert not plain.pinned
        assert plain._solve_laurent_system(plain._split({})) == ("unknown",)
        for hb in (_bound_for(x, m), _bound_for(x, None), plain):
            fresh = _InvariantBound(x, hb.pi)
            assert fresh._entry({}) == zero_vector_entry(fresh), gid
    _p, hb = a2b2_a3b3_bound()
    assert not hb.pinned
    assert hb._solve_laurent_system(hb._split({})) == ("unknown",)
    assert hb._entry({}) == zero_vector_entry(hb) == (0, 1, (0, None))


def test_rows_without_columns_must_be_zero():
    """Over ``<a, b, c | c>`` with a -> (1, 0), b -> (0, 1) and c -> (0, 0),
    only c's row of the graded system names the one column, so the rows
    of a and b have none after elimination: [a, b], whose a-row is not
    zero, is infeasible, and c a c^-1 a^-1, whose a-row is zero, needs
    (1 - z^(1,0)) times the relator c."""
    p = Presentation.build("a b c", ["c"])
    hb = _InvariantBound(presentation_complex(p), ((1, 0), (0, 1), (0, 0)))
    assert sorted(g for g, terms, _box in hb._left if not terms) == [0, 1]
    assert hb.bound((1, 2, -1, -2)) is None
    assert hb.bound((3, 1, -3, -1)) == 2


def test_unpinned_bound_of_a_path_that_does_not_close():
    """On the ``[a^2,b^2], [a^3,b^3]`` bound the graded solve of ``a``
    cannot decide, and the plain rows see that its projected path ends at
    (1, 0), so no filling exists."""
    _p, hb = a2b2_a3b3_bound()
    fox = hb._walk((1,))
    assert hb._solve_laurent_system(hb._split(fox)) == ("unknown",)
    assert hb._rows(fox) is None
    assert hb.bound((1,)) is None


def test_form_solutions_are_signed_monomials(galleries):
    """Each relator form's graded solution is one signed monomial in one
    column, and ``forms`` carries it."""
    for gid in GALLERY_IDS:
        _p, m, x = galleries[gid]
        hb = _bound_for(x, m)
        for w, terms, mono in hb.forms:
            res = hb._solve_laurent_system(hb._split(dict(terms)))
            assert res[0] == "ok" and res[1] == 1, (gid, w)
            ((j, col),) = [(j, col) for j, col in enumerate(res[2]) if col]
            ((t, v),) = col.items()
            assert v in (1, -1) and mono == (j, t, v), (gid, w)


def test_unpinned_bounds_score_through_vector_bound(galleries):
    """On the exponent-sum bounds of the galleries, and on the ``[a^2,b^2],
    [a^3,b^3]`` bounds with the unit projection and with the complex's
    own, every move is scored by ``vector_bound``: the forms carry no
    solution."""
    cases = []
    for gid in GALLERY_IDS:
        _p, _m, x = galleries[gid]
        cases.append((exponent_sum_bound(x), lattice_commutator(gid, 1)))
    p, hb = a2b2_a3b3_bound()
    cases.append((hb, p.relators[0].letters * 2))
    cases.append((_bound_for(presentation_complex(p), None), p.relators[0].letters * 2))
    for hb, word in cases:
        assert not hb.pinned and all(mono is None for _w, _t, mono in hb.forms)
        moves, calls = scored_moves(word, hb)
        assert calls > 0 and len(moves) == len(hb.forms) * len(word)
        for h, i, w in moves:
            assert h == hb.bound(word[:i] + w + word[i:]), (word, i, w)


@settings(max_examples=60, deadline=None)
@given(st.one_of(relator_products(), closed_words()))
def test_targeted_moves_match_filtered_moves(galleries, case):
    """``_moves`` with a target yields the moves that score it, as the
    unfiltered generator does: on the pinned bounds of the model's
    projection and the complex's own (the target one below the word's
    bound goes through the solution's support, one above through the
    filter) and on the exponent-sum bound, which is not pinned."""
    gid, word = case
    _p, m, x = galleries[gid]
    cur = canonical_cyclic(word)
    for hb in (_bound_for(x, m), _bound_for(x, None), exponent_sum_bound(x)):
        h = hb.bound(cur)
        if not cur or h is None:
            continue
        moves = list(_moves(cur, hb))
        for t in (h - 1, h + 1):
            targeted = list(_moves(cur, hb, t))
            assert all(score == t for score, _i, _w in targeted)
            assert sorted(mv[1:] for mv in targeted) == sorted(
                mv[1:] for mv in moves if mv[0] == t
            ), (gid, cur, t)


@st.composite
def seam_cases(draw):
    """(cur, w): a cyclically reduced nonempty ``cur`` and a freely
    reduced ``w``: random, the inverse of a cyclic piece of ``cur`` (so
    that it cancels whole at some position), or a conjugate, which is not
    cyclically reduced."""
    letter = st.sampled_from((1, -1, 2, -2, 3, -3))
    cur = cyclic_core(draw(st.lists(letter, min_size=1, max_size=10)))
    if not cur:
        cur = (1,)
    w = draw(st.lists(letter, max_size=6))
    kind = draw(st.sampled_from(("random", "piece", "conjugate")))
    if kind == "piece":
        j = draw(st.integers(0, len(cur) - 1))
        w = invert_ints((cur * 3)[j : j + draw(st.integers(1, 2 * len(cur)))]) + tuple(w[:1])
    elif kind == "conjugate":
        c = draw(st.lists(letter, min_size=1, max_size=3))
        w = [*c, *w, *invert_ints(c)]
    return cur, reduce_ints(w)


@settings(max_examples=200, deadline=None)
@given(seam_cases())
@example(((1, 2, -1, 3), (-2,)))  # w cancels whole; then 1 and -1 meet
@example(((1, 2), (-1, -2, -1)))  # the ends cancel after the seams
def test_core_length_counts_the_seams(case):
    cur, w = case
    for i in range(len(cur)):
        assert _core_length(cur, i, w) == len(cyclic_core(cur[:i] + w + cur[i:])), i


# Laurent polynomials with packed exponents (x, y)
laurent = st.dictionaries(
    st.builds(pack_point, st.integers(-3, 3), st.integers(-3, 3)), st.integers(-3, 3).filter(bool), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(laurent, laurent.filter(bool))
def test_lp_divide_inverts_lp_mul(q, d):
    assert _lp_divide(_lp_mul(q, d), d, _lp_box(d)) == q


@settings(max_examples=200, deadline=None)
@given(laurent, laurent.filter(lambda d: len(d) >= 2), st.builds(pack_point, st.integers(-6, 6), st.integers(-6, 6)))
def test_lp_divide_refuses_a_product_plus_a_monomial(q, d, k):
    """A monomial is divisible only by a monomial, so ``q * d + z^k`` is
    not divisible by a ``d`` of two or more terms."""
    num = _lp_add(_lp_mul(q, d), {k: 1})
    assert _lp_divide(num, d, _lp_box(d)) is None


def test_lp_divide_ends_without_a_quotient():
    """The lex-leading terms of 1 / (1 - x) never run out; the step that
    leaves the box of possible quotient exponents ends the division."""
    x = pack_point(1, 0)
    d = {0: 1, x: -1}
    assert _lp_divide({0: 1}, d, _lp_box(d)) is None
    assert _lp_divide({0: 1, 3 * x: -1}, d, _lp_box(d)) == {0: 1, x: 1, 2 * x: 1}


def eager_perfect_probe(letters, h0, hb):
    """Reference for ``_perfect_probe``: each node's successors are
    canonicalised, filtered and sorted in full when the node is pushed."""
    seen = {letters}
    nodes = 0

    def successors(cur, remaining):
        keep = {
            canonical_cyclic(cur[:i] + w + cur[i:])
            for h, i, w in enumeration._moves(cur, hb)
            if h == remaining - 1
        }
        return sorted(keep - seen, key=lambda w: (len(w), w))

    stack = [(letters, successors(letters, h0))]
    while stack:
        nodes += 1
        if nodes > enumeration.PROBE_NODE_BUDGET:
            return None
        cur, succ = stack[-1]
        if not succ:
            stack.pop()
            continue
        nxt = succ.pop(0)
        if nxt in seen:
            continue
        seen.add(nxt)
        remaining = h0 - len(stack)
        if nxt == ():
            return nodes
        if remaining <= 0:
            continue
        stack.append((nxt, successors(nxt, remaining)))
    return None


def probe_cases():
    """(gallery, word): the commutator powers ``[u^n, v^n]`` for n <= 4 and
    seeded products of one to three conjugated relator forms, on every
    gallery."""
    rng = random.Random(17)
    out = []
    for gid in GALLERY_IDS:
        out += [(gid, lattice_commutator(gid, n)) for n in range(1, 5)]
        p, _m = presentation(gid)
        forms = [w for w, _i, _o in relator_forms(presentation_complex(p))]
        letters = [s * g for g in range(1, len(p.names) + 1) for s in (1, -1)]
        for _ in range(30):
            word = []
            for _k in range(rng.randint(1, 3)):
                c = [rng.choice(letters) for _j in range(rng.randint(0, 2))]
                word += c + list(rng.choice(forms)) + list(invert_ints(c))
            out.append((gid, reduce_ints(word)))
    return out


def test_perfect_probe_matches_eager_reference(galleries, monkeypatch):
    """The lazy probe answers as the eager reference does, with the same
    node count, and expands the same nodes in the same order.  The probe
    asks ``_moves`` for its target score; the reference filters all of
    them."""
    expanded = []
    moves = enumeration._moves

    def recorded(cur, hb, target=None):
        expanded.append(cur)
        return moves(cur, hb, target)

    monkeypatch.setattr(enumeration, "_moves", recorded)
    found = missed = 0
    for gid, word in probe_cases():
        _p, m, x = galleries[gid]
        hb = _bound_for(x, m)
        letters = canonical_cyclic(word)
        h0 = hb.bound(letters)
        if not letters or h0 is None:
            continue
        expanded.clear()
        ref = eager_perfect_probe(letters, h0, hb)
        ref_expanded = list(expanded)
        expanded.clear()
        assert enumeration._perfect_probe(letters, h0, hb) == ref, (gid, word)
        assert expanded == ref_expanded, (gid, word)
        found += ref is not None
        missed += ref is None
    assert found and missed


def test_moves_keep_the_bound_feasible_and_consistent(galleries):
    """Every move out of a null-homotopic word has a bound, within one of
    the word's, on the pinned bounds with the model's projection and the
    complex's own and on the exponent-sum bound, which is not pinned; a
    sample of the moves is scored again from its word.  So A*'s heuristic
    is consistent: ``_relator_bfs`` tests no move for feasibility and needs
    no expansion cap beside ``MAX_STORED``."""
    checked = 0
    for gid, word in probe_cases():
        _p, m, x = galleries[gid]
        letters = canonical_cyclic(word)
        for hb in (_bound_for(x, m), _bound_for(x, None), exponent_sum_bound(x)):
            h = hb.bound(letters)
            assert h is not None, (gid, word)
            for h2, i, w in _moves(letters, hb):
                assert h2 is not None and abs(h2 - h) <= 1, (gid, word, h, h2)
                checked += 1
                if checked % 7 == 0:
                    assert hb.bound(letters[:i] + w + letters[i:]) == h2
    assert checked > 10_000


def test_astar_expands_each_word_once(galleries, monkeypatch):
    """With the probe off, A* asks ``_moves`` about each word at most once,
    so its expansions never exceed the words it stores: on the probe cases
    of bound at most 2, searched to one past their bound."""
    expanded = []
    moves = enumeration._moves

    def recorded(cur, hb, target=None):
        expanded.append(cur)
        return moves(cur, hb, target)

    monkeypatch.setattr(enumeration, "_perfect_probe", lambda letters, h0, hb: None)
    monkeypatch.setattr(enumeration, "_moves", recorded)
    searched = 0
    for gid, word in probe_cases():
        _p, m, x = galleries[gid]
        h0 = _bound_for(x, m).bound(canonical_cyclic(word))
        if h0 > 2:
            continue
        for model in (m, None):
            expanded.clear()
            res = area_oracle(word, x, bound=h0 + 1, method="relator_bfs", model=model)
            assert len(expanded) == len(set(expanded)) == res.expanded, (gid, word)
            searched += res.value is None
    assert searched
