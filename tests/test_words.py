import pytest
from hypothesis import example, given, strategies as st

from vankampen.presentation import (
    CyclicWord,
    Generator,
    Presentation,
    PresentationError,
    Word,
    cyclic_reduce,
    free_reduce,
    min_rotation_starts,
    parse_presentation_file,
    presentation_complex,
    presentation_file_text,
    reduce_ints,
)
from vankampen.enumeration import canonical_cyclic

ABC = ("a", "b", "c")


def w(text):
    return Word.from_text(text, ABC)


def test_free_reduce_cancellation():
    assert free_reduce(w("a b b^-1")) == w("a")


def test_free_reduce_empty():
    assert free_reduce(w("")) == w("")


def test_free_reduce_already_reduced():
    assert free_reduce(w("a b a^-1")) == w("a b a^-1")


letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)


@given(st.lists(letters, max_size=30))
def test_free_reduce_idempotent_and_shorter(xs):
    word = Word(xs, ABC)
    red = free_reduce(word)
    assert free_reduce(red) == red
    assert len(red) <= len(word)


def test_cyclic_reduce_conjugate():
    core, conj = cyclic_reduce(w("a b a^-1"))
    assert core == CyclicWord.from_text("b", ABC)
    assert conj == w("a")


def test_cyclic_reduce_fixed_point():
    core, conj = cyclic_reduce(w("a b a^-1 b^-1 c"))
    assert core == CyclicWord.from_text("a b a^-1 b^-1 c", ABC)
    assert len(conj) == 0


def test_cyclic_reduce_roundtrip_example():
    word = w("B a b c b")
    core, conj = cyclic_reduce(word)
    assert core == CyclicWord.from_text("a b c", ABC)
    # x u x^-1 freely reduces back to the input
    rebuilt = free_reduce(conj * core.word() * conj.inverse())
    assert rebuilt == free_reduce(word)


def _strip_core(xs):
    """Reference cyclic reduction: freely reduce, then strip one letter
    from each end while the ends cancel."""
    core = list(reduce_ints(xs))
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    return core


@given(st.lists(letters, max_size=30))
def test_cyclic_reduce_roundtrip(xs):
    word = Word(xs, ABC)
    core, conj = cyclic_reduce(word)
    rebuilt = free_reduce(conj * core.word() * conj.inverse())
    assert rebuilt == free_reduce(word)
    ref = _strip_core(xs)
    assert core.is_cyclically_reduced
    assert len(core) == len(ref)
    assert CyclicWord(xs, ABC).is_cyclically_reduced == (list(xs) == ref)


def test_word_text_conventions():
    assert w("aBBa").letters == (1, -2, -2, 1)
    assert w("a b^-1 b^-1 a") == w("aBBa")
    assert w("aBBa").text() == "aBBa"


def test_multichar_names_parse():
    names = ("a1", "a2", "b1")
    word = Word.from_text("a1 A2 b1^-1", names)
    assert word.letters == (1, -2, -3)
    assert Word.from_text("a1A2B1", names) == word


def test_cyclic_word_canonical_rotation():
    u = CyclicWord.from_text("b c a", ABC)
    v = CyclicWord.from_text("a b c", ABC)
    assert u == v
    assert u.letters == (1, 2, 3)  # positive-before-negative, list order


def test_cyclic_word_rotation_order_prefers_positive():
    u = CyclicWord.from_text("A b a", ABC)
    assert u.letters[0] == 1  # the rotation starting at the positive a wins


def test_presentation_rejects_unreduced_relator():
    with pytest.raises(PresentationError):
        Presentation.build("a b", ["a a^-1 b"])


def test_presentation_rejects_cyclically_unreduced():
    with pytest.raises(PresentationError):
        Presentation.build("a b", ["a b a^-1"])


def test_presentation_rejects_empty_relator():
    with pytest.raises(PresentationError):
        Presentation.build("a b", ["a a^-1"])


def test_generator_names_validated():
    with pytest.raises(PresentationError):
        Generator("")
    with pytest.raises(PresentationError):
        Generator("Abc")
    with pytest.raises(PresentationError):
        Presentation.build("a a", [])


def test_presentation_complex_thm2():
    p = Presentation.build("a b c", ["a b a^-1 b^-1 c", "c"])
    x = presentation_complex(p)
    assert x.alphabet == ABC
    assert x.faces == ((1, 2, -1, -2, 3), (3,))
    assert x.perimeters() == (5, 1)


def test_presentation_complex_thm1():
    p = Presentation.build(
        "a1 a2 b1 b2 c1 c2 c3",
        ["a2 b1 b2 a2^-1 a1^-1 b2^-1 c1 c2 c3", "a1^-1 b1 c1 c2 c3"],
    )
    x = presentation_complex(p)
    assert x.alphabet == p.names and len(x.alphabet) == 7
    assert sorted(x.perimeters()) == [5, 9]


def test_presentation_complex_no_relators():
    p = Presentation.build("a b c", [])
    x = presentation_complex(p)
    assert x.alphabet == ABC and x.faces == () and x.perimeters() == ()


def test_presentation_file_roundtrip(tmp_path):
    p = Presentation.build("a b c", ["a b a^-1 b^-1 c", "c"])
    text = presentation_file_text(p)
    assert parse_presentation_file(text) == p
    assert "gens: a b c" in text


def generator_order(letters):
    # a < A < b < B < ...
    return [2 * abs(x) - (x > 0) for x in letters]


def rotations(letters):
    return [tuple(letters[i:] + letters[:i]) for i in range(len(letters))] or [()]


@given(st.lists(letters, max_size=14))
def test_cyclic_word_is_least_rotation_in_generator_order(xs):
    assert CyclicWord(xs, ABC).letters == min(rotations(xs), key=generator_order)


@given(st.lists(letters, max_size=14))
def test_canonical_cyclic_is_least_rotation_of_core_or_inverse(xs):
    core = list(reduce_ints(xs))
    while len(core) >= 2 and core[0] == -core[-1]:
        core = core[1:-1]
    inverse = [-x for x in reversed(core)]
    assert canonical_cyclic(xs) == min(rotations(core) + rotations(inverse))


def brute_min_rotation_starts(xs):
    rots = rotations(list(xs))
    return [i for i, r in enumerate(rots) if r == min(rots)]


periodic_words = st.builds(
    lambda block, times: block * times,
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.integers(1, 5),
)


@given(st.lists(st.integers(-3, 3), max_size=16) | periodic_words
       | st.builds(lambda x, n: [x] * n, st.integers(-3, 3), st.integers(0, 12)))
@example([])
@example([5])
@example([2, 2, 2])
@example([1, 2, 1, 2, 1, 2])
def test_min_rotation_starts_matches_brute_force(xs):
    assert min_rotation_starts(xs) == brute_min_rotation_starts(xs)
