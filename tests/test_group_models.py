import pytest
from hypothesis import given, settings, strategies as st

from vankampen.presentation import CyclicWord, Word, reduce_ints
from vankampen.group_models import (
    FreeProductModel,
    GroupElement,
    LatticeVector,
    ModelError,
    cell_embeds,
    is_trivial,
    model_file_text,
    normal_form,
    parse_model_file,
    project_z2,
)
from vankampen.gallery import GALLERY_IDS, presentation


def test_group_element_normal_form_basics():
    a = GroupElement.lattice((1, 0))
    f = GroupElement.free((1,))
    assert (a * a.inverse()).is_identity
    assert (f * f.inverse()).is_identity
    g = a * f * a
    assert g.syllables == (("z", (1, 0)), ("f", (1,)), ("z", (1, 0)))


def test_group_element_collapse_remerges_neighbors():
    # f1 z f1^-1 * f1 z^-1 f1^-1 = identity: the middle cancellation must
    # merge the outer free syllables
    f1 = GroupElement.free((1,))
    z = GroupElement.lattice((1, 0))
    g = f1 * z * f1.inverse()
    h = f1 * z.inverse() * f1.inverse()
    assert (g * h).is_identity


def is_normal_form(g):
    """Alternating kinds, nonzero lattice syllables, and nonempty, freely
    reduced free syllables."""
    kinds = [kind for kind, _data in g.syllables]
    if any(a == b for a, b in zip(kinds, kinds[1:])):
        return False
    for kind, data in g.syllables:
        if kind not in ("z", "f"):
            return False
        if kind == "z" and not any(data):
            return False
        if kind == "f" and (not data or reduce_ints(data) != data):
            return False
    return True


# small entries and two free letters, so products cancel often
group_elements = st.recursive(
    st.one_of(
        st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(GroupElement.lattice),
        st.lists(st.sampled_from((1, -1, 2, -2)), max_size=4).map(GroupElement.free),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: ab[0] * ab[1]),
        inner.map(GroupElement.inverse),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(group_elements, group_elements, group_elements)
def test_products_and_inverses_keep_the_normal_form(a, b, c):
    for g in (a, b, a * b, b * a, a.inverse(), (a * b).inverse(), a * b.inverse(), a * b * c):
        assert is_normal_form(g), g
    assert (a * a.inverse()).is_identity
    assert (a * b) * c == a * (b * c)
    assert a * b * b.inverse() == a


def test_letter_images_invert_each_other():
    for gid in GALLERY_IDS:
        p, m = presentation(gid)
        for g, name in enumerate(p.names, 1):
            assert m.letter_image(g) == m.images[name]
            for x in (g, -g):
                assert is_normal_form(m.letter_image(x))
                assert (m.letter_image(x) * m.letter_image(-x)).is_identity, (gid, x)


def test_models_send_relators_to_identity():
    for gid in ("thm2", "thm1", "eq1", "eq2", "torusT"):
        p, m = presentation(gid)
        for r in p.relators:
            assert is_trivial(r.word(), m), (gid, r.text())


def test_model_rejects_bad_images():
    p, _ = presentation("thm2")
    with pytest.raises(ModelError):
        FreeProductModel(
            p,
            2,
            0,
            {
                "a": GroupElement.lattice((1, 0)),
                "b": GroupElement.lattice((0, 1)),
                "c": GroupElement.lattice((1, 1)),  # relator c no longer dies
            },
        )


def test_normal_form_thm1_examples():
    p, m = presentation("thm1")
    # [a1 a2, b1 b2] = [a, b] is the free-product relation
    comm = p.word("a1 a2 b1 b2 a2^-1 a1^-1 b2^-1 b1^-1")
    assert is_trivial(comm, m)
    assert not is_trivial(p.word("a1 b1"), m)
    assert not is_trivial(p.word("a1"), m)


def test_is_trivial_thm2_examples():
    p, m = presentation("thm2")
    assert is_trivial(p.word("c"), m)
    assert is_trivial(p.word("a b a^-1 b^-1"), m)
    assert not is_trivial(p.word("a"), m)


def test_project_z2_values():
    p, m = presentation("thm1")
    assert project_z2(p.word("a1"), m) == LatticeVector(1, 0)
    assert project_z2(p.word("b1"), m) == LatticeVector(0, 1)
    assert project_z2(p.word("c1"), m) == LatticeVector(1, -1)
    for g in ("a2", "b2", "c2", "c3"):
        assert project_z2(p.word(g), m) == LatticeVector(0, 0)


def test_project_z2_kills_relators():
    p, m = presentation("thm1")
    for r in p.relators:
        assert project_z2(r.word(), m) == LatticeVector(0, 0)


def test_project_z2_needs_rank_two():
    from vankampen.presentation import Presentation

    q = Presentation.build("t", [])
    m1 = FreeProductModel(q, 1, 0, {"t": GroupElement.lattice((1,))})
    with pytest.raises(ModelError):
        project_z2(q.word("t"), m1)


@st.composite
def thm1_words(draw):
    xs = draw(st.lists(st.integers(min_value=-7, max_value=7).filter(lambda v: v != 0), max_size=12))
    return xs


@settings(max_examples=60, deadline=None)
@given(thm1_words(), thm1_words())
def test_normal_form_is_homomorphism(xs, ys):
    p, m = presentation("thm1")
    u = Word(xs, p.names)
    v = Word(ys, p.names)
    assert normal_form(u * v, m) == normal_form(u, m) * normal_form(v, m)


@settings(max_examples=60, deadline=None)
@given(thm1_words(), st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=1))
def test_is_trivial_invariances(xs, pos, which):
    from vankampen.presentation import free_reduce

    p, m = presentation("thm1")
    word = Word(xs, p.names)
    base = is_trivial(word, m)
    assert is_trivial(word.inverse(), m) == base
    assert is_trivial(free_reduce(word), m) == base
    # rotation is conjugation, so it preserves triviality
    if xs:
        k = pos % len(xs)
        rotated = Word(tuple(xs[k:] + xs[:k]), p.names)
        assert is_trivial(rotated, m) == base
    # relator insertion anywhere preserves triviality
    r = p.relators[which].letters
    i = pos % (len(xs) + 1)
    spliced = Word(tuple(xs[:i]) + r + tuple(xs[i:]), p.names)
    assert is_trivial(spliced, m) == base


def test_cell_embeds_acceptance_trio():
    p1, m1 = presentation("thm1")
    assert cell_embeds(p1.relators[0], m1)
    assert cell_embeds(p1.relators[1], m1)
    pe, me = presentation("eq1")
    assert cell_embeds(pe.relators[0], me)
    assert cell_embeds(pe.relators[1], me)
    p2, m2 = presentation("thm2")
    assert not cell_embeds(p2.relators[0], m2)  # [a,b]c has trivial subword [a,b]
    assert cell_embeds(p2.relators[1], m2)  # the monogon is vacuously fine


def test_model_file_roundtrip():
    p, m = presentation("eq1")
    text = model_file_text(m)
    m2 = parse_model_file(text, p)
    for name in p.names:
        assert m.images[name] == m2.images[name]
    assert "abelian_rank 2" in text and "free_rank 2" in text


def test_model_file_image_outside_the_basis():
    p, m = presentation("eq1")
    text = model_file_text(m).replace("image a1 = e1", "image a1 = e3")
    with pytest.raises(ModelError, match="a1"):
        parse_model_file(text, p)
