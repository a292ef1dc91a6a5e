"""Words over signed generator alphabets, presentations, presentation complexes.

Letters are stored as nonzero integers: ``+k`` / ``-k`` refer to the k-th
generator (1-based) of a fixed alphabet of generator names.  Text form
follows the usual convention that an initial capital marks an inverse
(``aBBa`` means ``a b^-1 b^-1 a``); an explicit ``^-1`` suffix is also
accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple


class PresentationError(ValueError):
    """Malformed word, relator, or presentation."""


@dataclass(frozen=True)
class Generator:
    """A named generator.  Names start with a (lowercase) letter."""

    name: str

    def __post_init__(self):
        if not self.name or not self.name[0].isalpha() or not self.name.isalnum():
            raise PresentationError(f"bad generator name {self.name!r}")
        if self.name[0].isupper():
            raise PresentationError(
                f"generator {self.name!r} must start lowercase (capitals mark inverses)"
            )


def _flip_case(name: str) -> str:
    return name[0].upper() + name[1:]


def parse_letters(text: str, names: Sequence[str]) -> Tuple[int, ...]:
    """Parse word text into signed letter integers over ``names``.

    Longest generator name wins at each position, so alphabets like
    ``a, a1`` parse unambiguously.
    """
    order = sorted(range(len(names)), key=lambda i: -len(names[i]))
    out = []
    i = 0
    text = text.strip()
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        for j in order:
            name = names[j]
            n = len(name)
            chunk = text[i : i + n]
            if chunk == name:
                sign = 1
            elif chunk == _flip_case(name):
                sign = -1
            else:
                continue
            i += n
            if text[i : i + 3] == "^-1":
                sign = -sign
                i += 3
            out.append(sign * (j + 1))
            break
        else:
            raise PresentationError(f"cannot parse word at ...{text[i:]!r}")
    return tuple(out)


def letters_text(letters: Iterable[int], names: Sequence[str]) -> str:
    parts = []
    for x in letters:
        name = names[abs(x) - 1]
        parts.append(name if x > 0 else _flip_case(name))
    return "".join(parts) if parts else "1"


def reduce_ints(letters: Sequence[int]) -> Tuple[int, ...]:
    """Freely reduce a raw letter sequence."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def cyclic_core(letters: Sequence[int]) -> Tuple[int, ...]:
    """Free and then cyclic reduction: the freely reduced word less each
    pair of mutually inverse end letters, a contiguous middle of it."""
    w = reduce_ints(letters)
    n = len(w)
    k = 0
    while n - 2 * k >= 2 and w[k] == -w[n - 1 - k]:
        k += 1
    return w[k : n - k]


def invert_ints(letters: Sequence[int]) -> Tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def min_rotation_starts(seq: Sequence[int]) -> List[int]:
    """Every start of the lexicographically least rotation of ``seq``, in
    increasing order; ``[0]`` for the empty word.

    A least rotation begins with the least letter, so only the rotations
    at that letter's positions are compared, as tuples.  On a word of one
    repeated letter every position qualifies and the routine is quadratic,
    in compares done in C."""
    s = tuple(seq)
    n = len(s)
    if n <= 1:
        return [0]
    low = min(s)
    cands = [i for i, x in enumerate(s) if x == low]
    if len(cands) == 1:
        return cands
    doubled = s + s
    best = None
    starts: List[int] = []
    for i in cands:
        rot = doubled[i : i + n]
        if best is None or rot < best:
            best = rot
            starts = [i]
        elif rot == best:
            starts.append(i)
    return starts


def _generator_order_start(letters: Sequence[int]) -> int:
    # least rotation in generator-list order, positive before negative;
    # the smallest start when several rotations tie
    return min_rotation_starts([2 * abs(x) - (x > 0) for x in letters])[0]


class Word:
    """A (possibly unreduced) word in the free group on a named alphabet."""

    __slots__ = ("letters", "alphabet")

    def __init__(self, letters: Iterable[int], alphabet: Sequence[str]):
        self.letters: Tuple[int, ...] = tuple(letters)
        self.alphabet: Tuple[str, ...] = tuple(alphabet)
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) > len(self.alphabet):
                raise PresentationError(f"letter {x!r} outside alphabet")

    @classmethod
    def from_text(cls, text: str, alphabet: Sequence[str]) -> "Word":
        if text.strip() in ("", "1"):
            return cls((), alphabet)
        return cls(parse_letters(text, alphabet), alphabet)

    def text(self) -> str:
        return letters_text(self.letters, self.alphabet)

    def inverse(self) -> "Word":
        return Word(invert_ints(self.letters), self.alphabet)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise PresentationError("alphabet mismatch")
        return Word(self.letters + other.letters, self.alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash((self.letters, self.alphabet))

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"


class CyclicWord:
    """A word up to rotation; the least rotation is stored."""

    __slots__ = ("letters", "alphabet")

    def __init__(self, letters: Iterable[int], alphabet: Sequence[str]):
        w = Word(letters, alphabet).letters  # range validation
        k = _generator_order_start(w)
        self.letters: Tuple[int, ...] = w[k:] + w[:k]
        self.alphabet: Tuple[str, ...] = tuple(alphabet)

    @classmethod
    def from_text(cls, text: str, alphabet: Sequence[str]) -> "CyclicWord":
        return cls(Word.from_text(text, alphabet).letters, alphabet)

    def text(self) -> str:
        return letters_text(self.letters, self.alphabet)

    def word(self) -> Word:
        return Word(self.letters, self.alphabet)

    def inverse(self) -> "CyclicWord":
        return CyclicWord(invert_ints(self.letters), self.alphabet)

    @property
    def is_cyclically_reduced(self) -> bool:
        return cyclic_core(self.letters) == self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicWord)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash(("cyc", self.letters, self.alphabet))

    def __repr__(self) -> str:
        return f"CyclicWord({self.text()!r})"


def symmetrized(
    relators: Iterable[CyclicWord],
) -> Iterator[Tuple[Tuple[int, ...], int, int, int]]:
    """Every rotation of each relator and of its inverse, repeats included.

    Yields ``(word, relator_index, rotation, orientation)``.
    """
    for idx, r in enumerate(relators):
        for orient, base in ((1, r.letters), (-1, invert_ints(r.letters))):
            for rot in range(len(base)):
                yield base[rot:] + base[:rot], idx, rot, orient


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to ``w``."""
    return Word(reduce_ints(w.letters), w.alphabet)


def cyclic_reduce(w: Word) -> Tuple[CyclicWord, Word]:
    """Cyclically reduced core ``u`` and conjugator ``x`` with ``w = x u x^-1``.

    The core is stored in its canonical rotation; the conjugator absorbs
    the rotation offset so the identity holds letter for letter.
    """
    reduced = reduce_ints(w.letters)
    core = cyclic_core(reduced)
    k = _generator_order_start(core)
    prefix = reduced[: (len(reduced) - len(core)) // 2] + core[:k]
    return CyclicWord(core[k:] + core[:k], w.alphabet), Word(prefix, w.alphabet)


class Presentation:
    """Generators plus cyclically reduced, nonempty relators."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: Sequence[Generator], relators: Sequence[CyclicWord]):
        self.generators: Tuple[Generator, ...] = tuple(generators)
        names = self.names
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        self.relators: Tuple[CyclicWord, ...] = tuple(relators)
        for r in self.relators:
            if r.alphabet != names:
                raise PresentationError("relator alphabet mismatch")
            if len(r) == 0:
                raise PresentationError("empty relator")
            if not r.is_cyclically_reduced:
                raise PresentationError(f"relator {r.text()!r} is not cyclically reduced")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    @classmethod
    def build(cls, gens: str, relator_texts: Sequence[str]) -> "Presentation":
        names = tuple(gens.split())
        generators = tuple(Generator(n) for n in names)
        relators = tuple(CyclicWord.from_text(t, names) for t in relator_texts)
        return cls(generators, relators)

    def word(self, text: str) -> Word:
        return Word.from_text(text, self.names)

    def __repr__(self) -> str:
        rels = ", ".join(r.text() for r in self.relators)
        return f"<presentation {' '.join(self.names)} | {rels}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.names == other.names
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.names, self.relators))


@dataclass(frozen=True)
class TwoComplex:
    """The presentation complex: one vertex, a loop edge per generator
    named in ``alphabet``, and a 2-cell per relator whose boundary reads
    ``faces[i]`` (signed 1-based letters).

    Compared and hashed by content, so equal presentations give one
    cache key.
    """

    alphabet: Tuple[str, ...]
    faces: Tuple[Tuple[int, ...], ...]

    def face_words(self) -> Tuple[CyclicWord, ...]:
        return tuple(CyclicWord(f, self.alphabet) for f in self.faces)

    def perimeters(self) -> Tuple[int, ...]:
        return tuple(len(f) for f in self.faces)


def presentation_complex(p: Presentation) -> TwoComplex:
    """One vertex, a loop per generator, a 2-cell per relator."""
    return TwoComplex(p.names, tuple(r.letters for r in p.relators))


def parse_presentation_file(text: str) -> Presentation:
    """Parse the ``gens: ...`` / ``rel: ...`` line format."""
    gens: str | None = None
    rels: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens is not None:
                raise PresentationError("multiple gens: lines")
            gens = line[len("gens:") :]
        elif line.startswith("rel:"):
            rels.append(line[len("rel:") :].strip())
        else:
            raise PresentationError(f"unrecognized line {line!r}")
    if gens is None:
        raise PresentationError("missing gens: line")
    return Presentation.build(gens, rels)


def presentation_file_text(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.names)]
    lines += ["rel: " + r.text() for r in p.relators]
    return "\n".join(lines) + "\n"
