"""Word problem for Z^d * F_k via syllable normal forms.

Elements are alternating products of nonzero lattice vectors and nonempty
freely reduced words in the free factor.  The normal form is unique, so
triviality, and with it Wise's cell-embedding condition, is decidable by
plain multiplication.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

from .presentation import (
    CyclicWord,
    Presentation,
    PresentationError,
    Word,
    invert_ints,
    parse_letters,
    reduce_ints,
)


class ModelError(ValueError):
    """Invalid model data or unsupported query."""


class LatticeVector(NamedTuple):
    x: int
    y: int


# syllables: ("z", vector-tuple) or ("f", reduced-letter-tuple)
Syllable = Tuple[str, Tuple[int, ...]]


class GroupElement:
    """Normal form in Z^d * F_k.

    ``syllables`` must already be a normal form: alternating kinds, nonzero
    lattice vectors and nonempty freely reduced free words.  It is stored
    unchecked.  ``identity``, ``lattice``, ``free``, ``*`` and ``inverse``
    each keep the normal form, and elements are built only through them.
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables: Sequence[Syllable] = ()):
        self.syllables: Tuple[Syllable, ...] = tuple(syllables)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(())

    @classmethod
    def lattice(cls, vec: Sequence[int]) -> "GroupElement":
        v = tuple(vec)
        return cls((("z", v),)) if any(v) else cls(())

    @classmethod
    def free(cls, letters: Sequence[int]) -> "GroupElement":
        w = reduce_ints(letters)
        return cls((("f", w),)) if w else cls(())

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        stack: list[Syllable] = list(self.syllables)
        for syl in other.syllables:
            _push(stack, syl)
        return GroupElement(tuple(stack))

    def inverse(self) -> "GroupElement":
        out: list[Syllable] = []
        for kind, data in reversed(self.syllables):
            if kind == "z":
                out.append(("z", tuple(-x for x in data)))
            else:
                out.append(("f", invert_ints(data)))
        return GroupElement(tuple(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupElement) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        if self.is_identity:
            return "GroupElement(1)"
        bits = []
        for kind, data in self.syllables:
            bits.append(f"z{data}" if kind == "z" else f"f{data}")
        return "GroupElement(" + "·".join(bits) + ")"


def _push(stack: list, syl: Syllable) -> None:
    """Multiply the normal form on ``stack`` by one nonempty syllable.

    Only the last syllable can have the same kind; merging into it is the
    only reduction.  A merge to nothing leaves a syllable of the other kind
    on top, which the next syllable of an alternating product merges with.
    """
    kind, data = syl
    if stack and stack[-1][0] == kind:
        prev = stack.pop()[1]
        data = tuple(a + b for a, b in zip(prev, data)) if kind == "z" else reduce_ints(prev + data)
    if any(data):
        stack.append((kind, data))


class FreeProductModel:
    """Generator images in Z^d * F_k for a presentation.

    Every relator must map to the identity; this is checked on
    construction.
    """

    __slots__ = ("presentation", "abelian_rank", "free_rank", "images",
                 "letter_pi", "_letter_of", "_letter_images")

    def __init__(
        self,
        presentation: Presentation,
        abelian_rank: int,
        free_rank: int,
        images: Dict[str, GroupElement],
    ):
        self.presentation = presentation
        self.abelian_rank = abelian_rank
        self.free_rank = free_rank
        self.images = dict(images)
        for name in presentation.names:
            if name not in self.images:
                raise ModelError(f"no image for generator {name!r}")
        for g in self.images.values():
            for kind, data in g.syllables:
                if kind == "z" and len(data) != abelian_rank:
                    raise ModelError("lattice syllable rank mismatch")
                if kind == "f" and any(abs(x) > free_rank for x in data):
                    raise ModelError("free letter outside free rank")
        # the lattice projection of each signed letter's image
        self.letter_pi: Dict[int, Tuple[int, ...]] = {}
        self._letter_images: Dict[int, GroupElement] = {}
        # each generator's name -> its positive letter
        self._letter_of = {name: i for i, name in enumerate(presentation.names, 1)}
        for name, i in self._letter_of.items():
            img = self.images[name]
            part = self.lattice_part(img)
            self.letter_pi[i] = part
            self.letter_pi[-i] = tuple(-a for a in part)
            self._letter_images[i] = img
            self._letter_images[-i] = img.inverse()
        for r in presentation.relators:
            if not self._product(r.letters).is_identity:
                raise ModelError(f"relator {r.text()!r} is nontrivial under the model")

    def letter_image(self, x: int) -> GroupElement:
        """Image of the signed letter ``x``: generator ``|x|``, inverted when
        ``x < 0``."""
        return self._letter_images[x]

    def _product(self, letters: Sequence[int]) -> GroupElement:
        out = GroupElement.identity()
        for x in letters:
            out = out * self.letter_image(x)
        return out

    def lattice_part(self, g: GroupElement) -> Tuple[int, ...]:
        """Image of ``g`` under the projection killing the free factor: a
        vector of length ``abelian_rank``, zero when ``g`` has no lattice
        syllable."""
        total = (0,) * self.abelian_rank
        for kind, data in g.syllables:
            if kind == "z":
                total = tuple(a + b for a, b in zip(total, data))
        return total

    def pi(self, name: str) -> Tuple[int, ...]:
        """Lattice projection of a generator image."""
        return self.letter_pi[self._letter_of[name]]


def normal_form(w: Word, m: FreeProductModel) -> GroupElement:
    """Product of generator images, in normal form."""
    if w.alphabet != m.presentation.names:
        raise ModelError("word alphabet does not match the model's presentation")
    return m._product(w.letters)


def is_trivial(w: Word, m: FreeProductModel) -> bool:
    return normal_form(w, m).is_identity


def project_z2(w: Word, m: FreeProductModel) -> LatticeVector:
    """Abelianized image in the lattice factor (rank-2 models only)."""
    if m.abelian_rank != 2:
        raise ModelError("project_z2 needs abelian rank 2")
    if w.alphabet != m.presentation.names:
        raise ModelError("word alphabet does not match the model's presentation")
    x = y = 0
    for v in w.letters:
        px, py = m.letter_pi[v]
        x += px
        y += py
    return LatticeVector(x, y)


def cell_embeds(r: CyclicWord, m: FreeProductModel) -> bool:
    """Wise's condition: every proper nonempty cyclic subword is nontrivial.

    Equivalently the cell's boundary circuit lifts to a simple circuit in
    the universal cover.
    """
    if not r.letters:
        raise ModelError("empty cell boundary")
    return trivial_subword_witness(r, m) is None


def trivial_subword_witness(r: CyclicWord, m: FreeProductModel):
    """A proper nonempty cyclic subword that dies in the group, if any."""
    w = r.letters
    n = len(w)
    doubled = w + w
    for i in range(n):
        g = GroupElement.identity()
        for length in range(1, n):
            g = g * m.letter_image(doubled[i + length - 1])
            if g.is_identity:
                return Word(doubled[i : i + length], r.alphabet)
    return None


def parse_model_file(text: str, presentation: Presentation) -> FreeProductModel:
    """Parse ``abelian_rank`` / ``free_rank`` / ``image g = expr`` lines.

    Expressions are words in the lattice basis ``e1..ed`` and free letters
    ``f1..fk``.  Malformed text, an image of an unknown generator and a
    generator given twice raise ModelError.
    """
    d = k = None
    image_lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("abelian_rank", "free_rank"):
            if len(parts) != 2 or not parts[1].isdigit():
                raise ModelError(f"bad rank line {line!r}")
            if parts[0] == "abelian_rank":
                d = int(parts[1])
            else:
                k = int(parts[1])
        elif parts[0] == "image":
            rest = line[len("image") :].strip()
            if "=" not in rest:
                raise ModelError(f"bad image line {line!r}")
            gen, expr = rest.split("=", 1)
            image_lines.append((gen.strip(), expr.strip()))
        else:
            raise ModelError(f"unrecognized model line {line!r}")
    if d is None or k is None:
        raise ModelError("model file needs abelian_rank and free_rank")
    basis = tuple(f"e{i + 1}" for i in range(d)) + tuple(f"f{i + 1}" for i in range(k))
    images = {}
    for gen, expr in image_lines:
        if gen not in presentation.names:
            raise ModelError(f"image for unknown generator {gen!r}")
        if gen in images:
            raise ModelError(f"generator {gen!r} has more than one image")
        g = GroupElement.identity()
        try:
            letters = () if expr in ("", "1") else parse_letters(expr, basis)
        except PresentationError as exc:
            raise ModelError(f"bad image of {gen!r}: {exc}") from exc
        for x in letters:
            idx = abs(x) - 1
            if idx < d:
                vec = [0] * d
                vec[idx] = 1 if x > 0 else -1
                g = g * GroupElement.lattice(vec)
            else:
                g = g * GroupElement.free((x - d if x > 0 else x + d,))
        images[gen] = g
    return FreeProductModel(presentation, d, k, images)


def model_file_text(m: FreeProductModel) -> str:
    lines = [f"abelian_rank {m.abelian_rank}", f"free_rank {m.free_rank}"]
    for name in m.presentation.names:
        g = m.images[name]
        bits = []
        for kind, data in g.syllables:
            if kind == "z":
                for i, v in enumerate(data):
                    tok = f"e{i + 1}"
                    bits += [tok if v > 0 else tok + "^-1"] * abs(v)
            else:
                for x in data:
                    tok = f"f{abs(x)}"
                    bits.append(tok if x > 0 else tok + "^-1")
        lines.append(f"image {name} = {' '.join(bits) if bits else '1'}")
    return "\n".join(lines) + "\n"
