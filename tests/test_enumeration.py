import pytest
from hypothesis import given, settings, strategies as st

from vankampen.presentation import (
    Presentation,
    Word,
    invert_ints,
    presentation_complex,
    reduce_ints,
)
from vankampen.diagram import (
    DiskDiagram,
    attach_face,
    boundary_path,
    is_reduced,
    is_topological_disk,
    reduced_witness,
    relator_forms,
    validate,
)
from vankampen.enumeration import (
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
    _bound_for,
    _gluings,
    _letter_classes,
    _lp_add,
    _lp_box,
    _lp_divide,
    _lp_mul,
    _lp_norm,
    _moves,
    _prefix_classes,
)
from vankampen.gallery import GALLERY_IDS, figure_diagram, presentation
from vankampen.group_models import FreeProductModel, GroupElement, project_z2


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
    cancelling = 0
    for parent in enumerate_diagrams(x, EnumerationConfig(max_area=max_area)):
        accepted = {}
        for pos in range(parent.perimeter):
            for w in forms:
                for k in range(1, len(w) + 1):
                    child = attach_face(parent, pos, k, w)
                    if child is not None:
                        accepted[(pos, k, w)] = child
        gluings = {(pos, k, w): c for pos, k, w, c in _gluings(parent, forms, max_len)}
        assert gluings.keys() == accepted.keys()
        for key, child in accepted.items():
            assert is_topological_disk(child), key
            assert gluings[key] == (reduced_witness(child) is not None), key
            cancelling += gluings[key]
    assert cancelling


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


@pytest.mark.parametrize("gid", GALLERY_IDS)
@pytest.mark.parametrize("bound", [0, -1])
def test_oracles_certify_no_filling_below_area_one(galleries, gid, bound):
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
    hb, plain = _bound_for(x, m), _bound_for(x, None)
    pi_by_letter = {g: m.pi(name) for g, name in enumerate(p.names, start=1)}
    for w in (word, closed):
        counts = tuple(sum((v == g) - (v == -g) for v in w) for g in range(1, len(p.names) + 1))
        assert plain._rows(plain._walk(w)[1]) == counts
        rows = hb._rows(hb._walk(w)[1])
        if project_z2(Word(w, p.names), m) != (0, 0):
            assert rows is None and hb.bound(w) is None
        else:
            assert rows == (*counts, _area_row(w, pi_by_letter))


def test_relator_bfs_refutes_by_astar_or_word_problem(galleries):
    p, m, x = galleries["eq1"]
    # free-factor commutator: invisible to the invariants, nontrivial in the model
    w = p.word("c2 c3 c2^-1 c3^-1")
    res = area_oracle(w, x, bound=2, method="relator_bfs")
    assert res.value is None and res.certified_exact and res.expanded > 0
    res = area_oracle(w, x, bound=2, method="relator_bfs", model=m)
    assert res.value is None and res.certified_exact and res.expanded == 0
    assert res.note.startswith("model word problem")


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
    pair inserted, and on each scored move and its canonical form."""
    gid, word = case
    _p, m, x = galleries[gid]
    n = len(x.alphabet)
    for hb in (_bound_for(x, m), _bound_for(x, None)):
        def uncached(w):
            return hb._bound(hb._walk(w)[1])

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
        picked = data.draw(st.sets(st.sampled_from([w for w, _t in hb.forms]), min_size=1, max_size=2))
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
        e = hb._split(hb._walk(w)[1])
        res = hb._solve_laurent_system(e)
        if res[0] != "ok":
            continue
        assert res[1] == sum(_lp_norm(v) for v in res[2])
        for g, row in enumerate(hb.eq_matrix):
            acc = {}
            for coeff, v in zip(row, res[2]):
                acc = _lp_add(acc, _lp_mul(coeff, v))
            assert acc == e[g], (w, g)


laurent = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-3, 3).filter(bool), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(laurent, laurent.filter(bool))
def test_lp_divide_inverts_lp_mul(q, d):
    assert _lp_divide(_lp_mul(q, d), d, _lp_box(d)) == q


@settings(max_examples=200, deadline=None)
@given(laurent, laurent.filter(lambda d: len(d) >= 2), st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_lp_divide_refuses_a_product_plus_a_monomial(q, d, k):
    """A monomial is divisible only by a monomial, so ``q * d + z^k`` is
    not divisible by a ``d`` of two or more terms."""
    num = _lp_add(_lp_mul(q, d), {k: 1})
    assert _lp_divide(num, d, _lp_box(d)) is None


def test_lp_divide_ends_without_a_quotient():
    """The lex-leading terms of 1 / (1 - x) never run out; the step that
    leaves the box of possible quotient exponents ends the division."""
    d = {(0, 0): 1, (1, 0): -1}
    assert _lp_divide({(0, 0): 1}, d, _lp_box(d)) is None
    assert _lp_divide({(0, 0): 1, (3, 0): -1}, d, _lp_box(d)) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
