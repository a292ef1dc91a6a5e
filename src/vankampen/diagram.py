"""Disk diagrams as planar combinatorial maps (rotation systems).

Darts come in opposite pairs ``d`` / ``d ^ 1``.  ``sigma[d]`` is the next
dart with the same tail vertex, so vertices are the sigma-orbits.  Face
circuits follow ``phi(d) = sigma[d ^ 1]``; consecutive face darts run head
to tail, and one face orbit is distinguished as the outer face R_inf.
Planarity is the Euler count V - E + F = 2 together with connectivity.

Diagrams are compared up to combinatorial-map isomorphism, mirror images
included; the diagram's identity is its canonical code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .presentation import CyclicWord, TwoComplex, letters_text, min_rotation_starts, symmetrized
from .group_models import FreeProductModel, GroupElement


class DiagramError(ValueError):
    """Structurally impossible diagram or invalid operation."""


class LiftError(DiagramError):
    """Edge labels are inconsistent with the target group."""


def _orbits(sigma: Sequence[int], flip: int) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """Orbits of ``d -> sigma[d ^ flip]`` in order of their least dart, and
    each dart's orbit index: vertices for ``flip`` 0, faces for 1."""
    orbit_of = [-1] * len(sigma)
    orbits = []
    for d in range(len(sigma)):
        if orbit_of[d] >= 0:
            continue
        k = len(orbits)
        orbit = [d]
        orbit_of[d] = k
        e = sigma[d ^ flip]
        while e != d:
            orbit_of[e] = k
            orbit.append(e)
            e = sigma[e ^ flip]
        orbits.append(tuple(orbit))
    return tuple(orbits), tuple(orbit_of)


def _spanning_darts(d: "DiskDiagram") -> List[int]:
    """The darts by which one walk from vertex 0, along each dart of a
    reached vertex to the vertex at its head, first reaches each other
    vertex, in the order it reaches them.  Their heads are distinct and
    not vertex 0, and each tail is vertex 0 or the head of an earlier
    dart, so they span the vertex graph exactly when it is connected."""
    vertices, vertex_of = d.vertices, d.vertex_of
    seen = [False] * len(vertices)
    seen[0] = True
    tree = []
    stack = [0]
    while stack:
        for t in vertices[stack.pop()]:
            u = vertex_of[t ^ 1]
            if not seen[u]:
                seen[u] = True
                tree.append(t)
                stack.append(u)
    return tree


def _inverse(perm: Sequence[int]) -> List[int]:
    inv = [0] * len(perm)
    for d, e in enumerate(perm):
        inv[e] = d
    return inv


def _face_orbit(sigma: Sequence[int], dart: int) -> List[int]:
    """The darts of the face through ``dart``, from ``dart`` on."""
    orbit = [dart]
    e = sigma[dart ^ 1]
    while e != dart:
        orbit.append(e)
        e = sigma[e ^ 1]
    return orbit


def _encode(values: Sequence[int]) -> bytes:
    """Non-negative ints below ``2**32`` as bytes: a value below 255 is one
    byte, and a larger one is byte 255 followed by the value as 4
    big-endian bytes.  The encodings of two values compare as the values
    do, and none is a prefix of another, so two encoded sequences compare
    as bytes exactly as the sequences compare as tuples, equality
    included."""
    code = bytearray()
    for v in values:
        if v < 255:
            code.append(v)
        else:
            code.append(255)
            code += v.to_bytes(4, "big")
    return bytes(code)


def _code_from(start: int, sigma: Sequence[int], labels: Sequence[int], k: int) -> bytes:
    """The map relabelled in breadth-first order from ``start``: the flat
    sequence of (sigma rank, opposite rank, label + ``k``) triples, one per
    dart, where ``k`` is the alphabet size, so every value is at least 0,
    as ``_encode``'s bytes.  These compare in the order of the tuples.  A
    map of at most 255 darts over at most 127 generators has no value of
    255 or more, so its code is the one ``bytes(out)``."""
    rel = [-1] * len(sigma)
    rel[start] = 0
    order = [start]
    cnt = 1
    out: List[int] = []
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
        out += (ra, rb, labels[d] + k)
    # ranks are below cnt, and labels + k at most 2k
    return bytes(out) if cnt <= 255 and 2 * k < 255 else _encode(out)


def _forward_code(
    sigma: Sequence[int], labels: Sequence[int], outer_orbit: Sequence[int], k: int
) -> bytes:
    """``_map_code``'s forward half: the least ``_code_from`` over the
    outer darts where the boundary label word attains its least rotation."""
    outer_labels = [labels[q] for q in outer_orbit]
    return min(
        _code_from(outer_orbit[i], sigma, labels, k) for i in min_rotation_starts(outer_labels)
    )


def _mirror_code(
    sigma: Sequence[int], labels: Sequence[int], outer_orbit: Sequence[int], k: int
) -> bytes:
    """``_map_code``'s mirror half: the forward half of the mirror image,
    whose rotation is ``_inverse(sigma)`` and whose outer orbit runs
    ``O[0] ^ 1, O[B - 1] ^ 1, ..., O[1] ^ 1``."""
    O = outer_orbit
    B = len(O)
    return _forward_code(_inverse(sigma), labels, [O[(B - j) % B] ^ 1 for j in range(B)], k)


def _map_code(
    sigma: Sequence[int], labels: Sequence[int], outer_orbit: Sequence[int], k: int
) -> bytes:
    """Minimal relabelling code over canonical starts and both orientations,
    as ``_code_from``'s bytes over an alphabet of ``k`` generators.

    Isomorphisms preserve the outer face, so starts can be restricted to
    the outer darts where the boundary label word attains its least
    rotation.  ``_forward_code`` takes the least code over those starts,
    and it is equal for two maps exactly when an orientation-preserving
    isomorphism takes one to the other.  ``_mirror_code`` is the forward
    half of the mirror image, so it is equal to another map's forward half
    exactly when an orientation-reversing isomorphism joins them.  The code
    is the lesser half.  Neither half depends on which dart
    ``outer_orbit`` starts at.

    So one key per orientation is exact: a map is isomorphic, mirror
    images included, to a map ``D`` exactly when its forward half is
    ``D``'s forward or mirror half.  ``_levels`` keys both halves of each
    diagram it admits and tests a child by its forward half alone."""
    return min(
        _forward_code(sigma, labels, outer_orbit, k), _mirror_code(sigma, labels, outer_orbit, k)
    )


@lru_cache(maxsize=None)
def _label_json(alphabet: Tuple[str, ...]) -> Tuple[Tuple[str, ...], str]:
    """``json.dumps`` of each signed label's name, read as ``names[x]``
    for a label ``x`` (an inverse ``-i`` lands at ``2k + 1 - i``, past the
    ``k`` positive names), and of the alphabet; one table per alphabet."""
    names = [""] * (2 * len(alphabet) + 1)
    for i, name in enumerate(alphabet, 1):
        names[i] = json.dumps(name)
        names[-i] = json.dumps(name + "^-1")
    return tuple(names), json.dumps(list(alphabet), separators=(",", ":"))


@lru_cache(maxsize=None)
def _opposite_json(n: int) -> str:
    """The ``opposite`` list of ``n`` darts, ``1,0,3,2,...``, as JSON."""
    return ",".join([str(d ^ 1) for d in range(n)])


class DiskDiagram:
    """Immutable planar map with labeled darts and a distinguished outer face.

    Since ``sigma``, ``labels`` and ``alphabet`` are tuples, a fact about
    the map stays true for the object's life, so a few are computed on
    first use and kept: the vertices, the canonical code, whether the map
    has a spur or shell (``dehn_props``; the witness lists are not kept),
    whether it is a topological disk (``is_topological_disk``) and whether
    it is reduced (``is_reduced``; the enumerator seeds both answers for
    the disks it builds, as it seeds the code), and the invariant bound of
    its boundary word, with the bound object that gave it
    (``enumeration.is_minimal``, which reuses it only for that same
    object).

    A disk that the enumerator builds also keeps ``_forms``, a pair
    ``(x, mask)`` shared by every disk of its stream with that mask: ``x``
    is the complex it was built over, and ``mask`` has bit ``2i`` (``2i +
    1``) set when some face was glued as a positive (negative) form of
    relator ``i`` of ``x``, as ``relator_form_table(x)`` names it.  Every
    other map, including one rebuilt by the constructor or ``from_json``,
    keeps None there.
    """

    __slots__ = (
        "sigma",
        "labels",
        "alphabet",
        "outer_dart",
        "faces",
        "face_of",
        "outer_face",
        "inner_face_indices",
        "area",
        "_vertex_of",
        "_vertices",
        "_canon",
        "_spur_or_shell",
        "_disk",
        "_reduced",
        "_forms",
        "_bound",
    )

    def __init__(
        self,
        sigma: Sequence[int],
        labels: Sequence[int],
        alphabet: Sequence[str],
        outer_dart: Optional[int],
    ):
        sigma, labels, alphabet = tuple(sigma), tuple(labels), tuple(alphabet)
        n = len(sigma)
        if n % 2 or len(labels) != n:
            raise DiagramError("darts must come in labelled opposite pairs")
        # bools and floats compare equal to darts, but JSON would write them as such
        if any(type(e) is not int for e in sigma) or sorted(sigma) != list(range(n)):
            raise DiagramError("sigma is not a permutation of the darts")
        for d in range(0, n, 2):
            if labels[d] == 0 or labels[d] != -labels[d ^ 1]:
                raise DiagramError("opposite darts must carry inverse labels")
            if abs(labels[d]) > len(alphabet):
                raise DiagramError("label outside alphabet")
        # the JSON labels name an inverse by the suffix ^-1, so only distinct
        # names without it read back as the labels they were written from
        if len(set(alphabet)) != len(alphabet):
            raise DiagramError("repeated generator name")
        if any(name.endswith("^-1") for name in alphabet):
            raise DiagramError("generator name ends in ^-1")
        if n == 0:
            if outer_dart is not None:
                raise DiagramError("single-vertex diagram has no outer dart")
        elif type(outer_dart) is not int or not 0 <= outer_dart < n:
            raise DiagramError("missing or out-of-range outer dart")
        self._setup(sigma, labels, alphabet, outer_dart)

    def _setup(
        self,
        sigma: Tuple[int, ...],
        labels: Tuple[int, ...],
        alphabet: Tuple[str, ...],
        outer_dart: Optional[int],
    ) -> None:
        """Set the fields of a map that ``__init__``'s checks accept, from
        tuples.  ``enumeration._built`` calls it alone, on ``__new__``
        objects, for the glued children that pass those checks by
        construction."""
        self.sigma = sigma
        self.labels = labels
        self.alphabet = alphabet
        self.outer_dart = outer_dart
        # every use reads the faces; the vertices wait for their first use
        self.faces, self.face_of = _orbits(sigma, 1)
        self.outer_face = self.face_of[outer_dart] if sigma else None
        self.inner_face_indices = tuple(i for i in range(len(self.faces)) if i != self.outer_face)
        self.area = len(self.inner_face_indices)
        self._vertex_of = None
        self._vertices = None
        self._canon = None
        self._spur_or_shell = None
        self._disk = None
        self._reduced = None
        self._forms = None
        self._bound = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def single_vertex(cls, alphabet: Sequence[str]) -> "DiskDiagram":
        return cls((), (), alphabet, None)

    @classmethod
    def from_face_word(cls, word: Sequence[int], alphabet: Sequence[str]) -> "DiskDiagram":
        """A single polygonal 2-cell with a simple boundary circuit."""
        w = tuple(word)
        n = len(w)
        if n == 0:
            raise DiagramError("empty face word")
        sigma = [0] * (2 * n)
        labels = [0] * (2 * n)
        for i in range(n):
            labels[2 * i] = w[i]
            labels[2 * i + 1] = -w[i]
            # vertex between edge i and edge i+1 carries darts 2i+1, 2(i+1)
            sigma[2 * i + 1] = 2 * ((i + 1) % n)
            sigma[2 * ((i + 1) % n)] = 2 * i + 1
        return cls(sigma, labels, alphabet, 1)

    # ------------------------------------------------------------------
    # basic structure

    @property
    def n_darts(self) -> int:
        return len(self.sigma)

    @property
    def n_edges(self) -> int:
        return len(self.sigma) // 2

    def _compute_vertices(self):
        if self._vertices is None:
            self._vertices, self._vertex_of = _orbits(self.sigma, 0)

    @property
    def vertices(self) -> Tuple[Tuple[int, ...], ...]:
        if self.n_darts == 0:
            return ((),)
        self._compute_vertices()
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def vertex_of(self) -> Tuple[int, ...]:
        """Each dart's vertex (the index of its sigma-orbit), read as
        ``d.vertex_of[t]``, as ``face_of`` is."""
        self._compute_vertices()
        return self._vertex_of

    def face_word_ints(self, fi: int) -> Tuple[int, ...]:
        # from a list, not a generator: tuple() of a generator allocates a
        # guessed length and then resizes, which raised the perfbench scan
        # workload's peak RSS by about 0.2 MB once torus_coordinates read
        # every face word
        labels = self.labels
        return tuple([labels[d] for d in self.faces[fi]])

    def outer_orbit(self) -> Tuple[int, ...]:
        return self.faces[self.outer_face] if self.n_darts else ()

    def boundary_circuit(self) -> Tuple[int, ...]:
        """Darts around the disk, read with the inner faces' orientation."""
        return tuple(q ^ 1 for q in reversed(self.outer_orbit()))

    def boundary_word_ints(self) -> Tuple[int, ...]:
        """The labels of ``boundary_circuit``, read off the outer orbit in
        one pass."""
        labels = self.labels
        return tuple([labels[q ^ 1] for q in reversed(self.outer_orbit())])

    @property
    def perimeter(self) -> int:
        return len(self.outer_orbit())

    @property
    def is_connected(self) -> bool:
        """Whether the walk of ``_spanning_darts`` reaches every vertex."""
        return len(_spanning_darts(self)) == self.n_vertices - 1

    @property
    def euler_characteristic(self) -> int:
        if self.n_darts == 0:
            return 2  # one vertex, no edges, the outer face alone
        return self.n_vertices - self.n_edges + len(self.faces)

    # ------------------------------------------------------------------
    # isomorphism

    def _code(self) -> bytes:
        """``_map_code``'s bytes, computed once and kept in ``_canon``.
        Diagrams over one alphabet compare, hash and sort by it."""
        if self._canon is None:
            self._canon = (
                _map_code(self.sigma, self.labels, self.outer_orbit(), len(self.alphabet))
                if self.n_darts
                else b""
            )
        return self._canon

    def canonical_code(self) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """The diagram's identity up to isomorphism, mirror images
        included: the alphabet and the bytes of ``_map_code`` as a tuple of
        ints, built on each call.  Codes compare in the same order and
        equality as those bytes."""
        return (self.alphabet, tuple(self._code()))

    def mirror(self) -> "DiskDiagram":
        outer = None if self.outer_dart is None else self.outer_dart ^ 1
        return DiskDiagram(_inverse(self.sigma), self.labels, self.alphabet, outer)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiskDiagram)
            and self.alphabet == other.alphabet
            and self._code() == other._code()
        )

    def __hash__(self) -> int:
        return hash(self._code())

    def __repr__(self) -> str:
        return (
            f"<DiskDiagram area={self.area} perimeter={self.perimeter} "
            f"V={self.n_vertices} E={self.n_edges}>"
        )

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        """One line of JSON, formatted directly: the bytes that
        ``json.dumps`` writes for the dict of ``darts``, ``opposite``,
        ``sigma``, ``labels``, ``outer_face_dart`` and ``alphabet`` with
        separators ``(",", ":")``.  The constructor admits only ints as
        darts, so ``str`` writes each as ``json.dumps`` would."""
        names, alphabet = _label_json(self.alphabet)
        n = len(self.sigma)
        outer = "null" if self.outer_dart is None else self.outer_dart
        return (
            f'{{"darts":{n},"opposite":[{_opposite_json(n)}],'
            f'"sigma":[{",".join(map(str, self.sigma))}],'
            f'"labels":[{",".join([names[x] for x in self.labels])}],'
            f'"outer_face_dart":{outer},"alphabet":{alphabet}}}'
        )

    @classmethod
    def from_json(cls, text: str) -> "DiskDiagram":
        """The diagram that ``to_json`` wrote; DiagramError on any malformed
        input."""
        try:
            data = json.loads(text)
            n = data["darts"]
            opposite = data.get("opposite") or [d ^ 1 for d in range(n)]
            if sorted(opposite) != list(range(n)) or any(opposite[opposite[d]] != d or opposite[d] == d for d in range(n)):
                raise DiagramError("opposite is not a fixed-point-free involution")
            alphabet = tuple(data["alphabet"]) if "alphabet" in data else None
            raw_labels = data["labels"]
            if len(raw_labels) != n:
                raise DiagramError("need one label per dart")
            if alphabet is None:
                seen = []
                for s in raw_labels:
                    name = s[:-3] if s.endswith("^-1") else s
                    if name not in seen:
                        seen.append(name)
                alphabet = tuple(sorted(seen))
            labels = []
            for s in raw_labels:
                if s.endswith("^-1"):
                    labels.append(-(alphabet.index(s[:-3]) + 1))
                else:
                    labels.append(alphabet.index(s) + 1)
            # remap so opposite pairs become (2i, 2i + 1)
            remap = [-1] * n
            nxt = 0
            for d in range(n):
                if remap[d] < 0:
                    remap[d] = nxt
                    remap[opposite[d]] = nxt + 1
                    nxt += 2
            # checked here, since a negative index would wrap around in remap
            if sorted(data["sigma"]) != list(range(n)):
                raise DiagramError("sigma is not a permutation of the darts")
            outer = data.get("outer_face_dart")
            if outer is not None and outer not in range(n):
                raise DiagramError("outer dart out of range")
            sigma = [0] * n
            new_labels = [0] * n
            for d in range(n):
                sigma[remap[d]] = remap[data["sigma"][d]]
                new_labels[remap[d]] = labels[d]
            outer = None if outer is None else remap[outer]
            return cls(sigma, new_labels, alphabet, outer)
        except DiagramError:
            raise
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise DiagramError(f"malformed diagram JSON: {exc!r}") from exc

    def to_dot(self, features: Optional[Sequence["FeatureWitness"]] = None) -> str:
        """DOT rendering: vertices, labeled directed edges, feature colors."""
        shell_darts = set()
        cut_faces = {}
        spur_vertices = set()
        for w in features or ():
            if w.kind == "shell":
                shell_darts.update(d & ~1 for d in w.darts)
            elif w.kind == "cutcell":
                cut_faces.setdefault(w.face, w.defn)
            elif w.kind == "spur":
                spur_vertices.add(w.vertex)
        lines = ["digraph diskdiagram {"]
        for v in range(self.n_vertices):
            style = ' color="red"' if v in spur_vertices else ""
            lines.append(f'  v{v} [shape=point{style}];')
        for d in range(0, self.n_darts, 2):
            pos = d if self.labels[d] > 0 else d ^ 1
            tail = self.vertex_of[pos]
            head = self.vertex_of[pos ^ 1]
            name = self.alphabet[abs(self.labels[pos]) - 1]
            color = ' color="blue"' if (pos & ~1) in shell_darts else ""
            lines.append(f'  v{tail} -> v{head} [label="{name}"{color}];')
        for fi in self.inner_face_indices:
            word = letters_text(self.face_word_ints(fi), self.alphabet)
            note = f"face {fi}: {word}"
            if fi in cut_faces:
                note += f" (cutcell def {cut_faces[fi]})"
            lines.append(f'  // {note}')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# reports and witnesses


@dataclass(frozen=True)
class FaceTag:
    kind: str  # "outer" | "inner"
    relator_index: Optional[int] = None
    orientation: Optional[int] = None


@dataclass(frozen=True)
class ValidationReport:
    entries: Tuple[str, ...]
    face_tags: Tuple[FaceTag, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class FeatureWitness:
    kind: str  # "spur" | "shell" | "cutcell"
    defn: Optional[int] = None
    face: Optional[int] = None
    vertex: Optional[int] = None
    darts: Tuple[int, ...] = ()
    components: Tuple[Tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class BoundaryPath:
    darts: Tuple[int, ...]
    word: CyclicWord


@dataclass(frozen=True)
class ReducedWitness:
    face_a: int
    face_b: int
    dart: int


# ----------------------------------------------------------------------
# validation


@lru_cache(maxsize=None)
def relator_form_table(x: TwoComplex) -> Dict[Tuple[int, ...], Tuple[int, int]]:
    """Each distinct rotation of each relator and of its inverse, mapped to
    the ``(relator_index, orientation)`` of its first occurrence in
    ``symmetrized`` order; one table per complex, keyed by its content.
    Callers must not change it."""
    table: Dict[Tuple[int, ...], Tuple[int, int]] = {}
    for w, idx, _rot, orient in symmetrized(x.face_words()):
        table.setdefault(w, (idx, orient))
    return table


def relator_forms(x: TwoComplex) -> List[Tuple[Tuple[int, ...], int, int]]:
    """The triples ``(word, relator_index, orientation)`` of
    ``relator_form_table``, in its order."""
    return [(w, idx, orient) for w, (idx, orient) in relator_form_table(x).items()]


def face_tags(d: DiskDiagram, x: TwoComplex) -> Tuple[Optional[FaceTag], ...]:
    """Match inner faces against relator rotations; None marks a mismatch."""
    table = relator_form_table(x)
    tags: List[Optional[FaceTag]] = []
    outer = d.outer_face
    for fi in range(len(d.faces)):
        if fi == outer:
            tags.append(FaceTag("outer"))
            continue
        hit = table.get(d.face_word_ints(fi))
        tags.append(None if hit is None else FaceTag("inner", hit[0], hit[1]))
    return tuple(tags)


def validate(d: DiskDiagram, x: TwoComplex) -> ValidationReport:
    """Check the disk-diagram conditions over the complex ``x``."""
    entries: List[str] = []
    if d.alphabet != x.alphabet:
        entries.append("diagram alphabet does not match complex edge labels")
        return ValidationReport(tuple(entries))
    if not d.is_connected:
        entries.append("underlying graph is disconnected")
    if d.euler_characteristic != 2:
        entries.append(
            f"Euler count V-E+F = {d.euler_characteristic} != 2 (not a sphere decomposition)"
        )
    tags = face_tags(d, x)
    clean_tags: List[FaceTag] = []
    for fi, tag in enumerate(tags):
        if tag is None:
            word = letters_text(d.face_word_ints(fi), d.alphabet)
            entries.append(f"inner face {fi} reads {word!r}, not a relator up to rotation/inversion")
            clean_tags.append(FaceTag("inner"))
        else:
            clean_tags.append(tag)
    return ValidationReport(tuple(entries), tuple(clean_tags))


# ----------------------------------------------------------------------
# boundary and local features


def boundary_path(d: DiskDiagram) -> BoundaryPath:
    darts = d.boundary_circuit()
    return BoundaryPath(darts, CyclicWord(tuple(d.labels[t] for t in darts), d.alphabet))


def reduced_witness(d: DiskDiagram) -> Optional[ReducedWitness]:
    """A back-to-back cancellable face pair, if one exists.

    Two distinct faces sharing an edge cancel when, read from the shared
    edge, one boundary is the inverse of the other (they fold onto the
    same cell of the target complex).  Faces of different lengths cannot
    cancel, so only faces of one length have their words compared.
    """
    outer, faces, face_of = d.outer_face, d.faces, d.face_of
    for dart in range(0, d.n_darts, 2):
        fa = face_of[dart]
        fb = face_of[dart ^ 1]
        if fa == outer or fb == outer or fa == fb or len(faces[fa]) != len(faces[fb]):
            continue
        if _face_word_from(d, dart ^ 1) == cancelling_partner(_face_word_from(d, dart)):
            return ReducedWitness(fa, fb, dart)
    return None


def cancelling_partner(word: Sequence[int]) -> Tuple[int, ...]:
    """The word a face must read from ``d ^ 1`` to cancel against a face
    reading ``word`` from ``d``: the inverse, started at the shared edge."""
    return (-word[0],) + tuple(-x for x in reversed(word[1:]))


def _face_word_from(d: DiskDiagram, dart: int) -> Tuple[int, ...]:
    out = [d.labels[dart]]
    e = d.sigma[dart ^ 1]
    while e != dart:
        out.append(d.labels[e])
        e = d.sigma[e ^ 1]
    return tuple(out)


def is_reduced(d: DiskDiagram) -> bool:
    """Whether ``reduced_witness`` finds no cancellable pair, asked once
    per diagram and kept in ``d._reduced``."""
    if d._reduced is None:
        d._reduced = reduced_witness(d) is None
    return d._reduced


def find_spurs(d: DiskDiagram) -> List[FeatureWitness]:
    """Valence-1 vertices, each with its leading edge.

    Reads ``sigma`` alone: a vertex has valence 1 exactly when its one dart
    is a fixed point of ``sigma``.  The vertices are computed only to name
    a spur's vertex, and they are numbered by their least dart, so the
    witnesses come in vertex order."""
    return [
        FeatureWitness("spur", vertex=d.vertex_of[t], darts=(t,))
        for t, s in enumerate(d.sigma)
        if s == t
    ]


def _shell_runs(d: DiskDiagram) -> Iterator[Tuple[int, int, int]]:
    """The shell runs of ``d``'s outer face ``O``, each as ``(face, j, k)``
    as soon as the walk reaches the run's end: the inner face ``face`` has
    more than half its circuit on the free arc behind ``O[j:k]``, positions
    read modulo ``len(O)``.

    A free dart of an inner face is the opposite of an outer dart.
    Consecutive outer darts ``O[j-1]``, ``O[j]`` are linked when
    ``sigma[O[j]] == O[j-1] ^ 1`` (their shared vertex has valence 2) and
    both opposites are inner; then those opposites are consecutive darts of
    one inner face, in reverse order.  So a maximal linked run of ``m``
    outer darts is a free arc of one face ``g``, and ``g`` is a shell when
    ``2m > len(g)``; at most one run of a face can pass.

    The walk works out each position's link as it reaches it.  Runs start
    at the positions not linked to the one before; the walk starts at the
    first of them, and the run it skipped before that position is the
    tail of the last run, which ends there a lap later.  When every
    position is linked, the whole outer face is one run and its face's
    whole circuit; that run starts just after the outer dart opposite the
    face's least dart, so read backwards it starts at that dart, as the
    circuit does.
    """
    if not d.n_darts:
        return
    sigma, faces, face_of, outer = d.sigma, d.faces, d.face_of, d.outer_face
    O = faces[outer]
    first = j = -1
    p = O[-1]
    for k, q in enumerate(O):
        if sigma[q] != p ^ 1 or face_of[p ^ 1] == outer or face_of[q ^ 1] == outer:
            if j < 0:
                first = k
            else:
                g = face_of[O[j] ^ 1]
                if g != outer and 2 * (k - j) > len(faces[g]):
                    yield g, j, k
            j = k
        p = q
    B = len(O)
    if j < 0:
        g = face_of[O[0] ^ 1]
        j = (O.index(faces[g][0] ^ 1) + 1) % B
        first = j
    else:
        g = face_of[O[j] ^ 1]
    if g != outer and 2 * (first + B - j) > len(faces[g]):
        yield g, j, first + B


def find_shells(d: DiskDiagram) -> List[FeatureWitness]:
    """Inner faces with more than half their perimeter on one boundary arc.

    The arc must be contiguous on the boundary attaching map as well: at
    each intermediate vertex no other structure may interrupt, i.e.
    ``sigma`` must step straight from one free dart to the opposite of the
    previous one.  If a face traverses an edge twice, each traversal
    counts separately (the definition is about attaching maps).

    The runs are those of ``_shell_runs``, one walk of the outer face.
    Witnesses come in face order, each arc in the face's circuit order
    (the run's opposites, reversed); a run around the whole outer face is
    the whole circuit of its face.
    """
    O = d.outer_orbit()
    B = len(O)
    shells = []
    for g, j, k in _shell_runs(d):
        run = O[j:k] if k <= B else O[j:] + O[: k - B]
        shells.append((g, tuple([q ^ 1 for q in reversed(run)])))
    shells.sort()
    return [FeatureWitness("shell", face=g, darts=arc) for g, arc in shells]


def _cyclic_runs(member: Sequence[bool], linked: Sequence[bool]) -> List[List[int]]:
    """Maximal runs of positions on a cycle.  ``linked[t]`` joins position
    ``t`` to ``t - 1`` (both members); a run starts at a member not linked
    to its predecessor.  When every position is linked, the whole cycle
    is one run."""
    n = len(member)
    if n and all(linked):
        return [list(range(n))]
    runs = []
    for t in range(n):
        if member[t] and not linked[t]:
            run = [t]
            while linked[(run[-1] + 1) % n]:
                run.append((run[-1] + 1) % n)
            runs.append(run)
    return runs


def find_cutcells(d: DiskDiagram, defn: int) -> List[FeatureWitness]:
    """Cutcells per definition 1, 2 or 3.

    1. removing the closed cell disconnects what remains;
    2. the preimage of the cell boundary in the boundary circle has at
       least two components;
    3. same, with every component containing an edge.
    """
    if defn not in (1, 2, 3):
        raise DiagramError(f"cutcell definition must be 1, 2 or 3, got {defn}")
    if defn == 1:
        return [
            FeatureWitness("cutcell", defn=1, face=fi)
            for fi in d.inner_face_indices
            if _removal_disconnects(d, fi)
        ]
    # the boundary circle as alternating vertex-visit and edge slots, named
    # as the witnesses name them; a component is a maximal cyclic run of
    # slots in the closure of the cell
    vertex_of = d.vertex_of
    slots = []
    for q in d.outer_orbit():
        slots += (f"v{vertex_of[q]}", f"e{q >> 1}")
    out = []
    for fi in d.inner_face_indices:
        circuit = d.faces[fi]
        closure = {f"e{t >> 1}" for t in circuit} | {f"v{vertex_of[t]}" for t in circuit}
        hit = [s in closure for s in slots]
        linked = [hit[t] and hit[t - 1] for t in range(len(hit))]
        comps = [tuple(slots[u] for u in run) for run in _cyclic_runs(hit, linked)]
        if len(comps) < 2:
            continue
        if defn == 3 and not all(any(s[0] == "e" for s in comp) for comp in comps):
            continue
        out.append(FeatureWitness("cutcell", defn=defn, face=fi, components=tuple(comps)))
    return out


def _removal_disconnects(d: DiskDiagram, fi: int) -> bool:
    circuit = d.faces[fi]
    bd_edges = {t >> 1 for t in circuit}
    vertex_of = d.vertex_of
    bd_verts = {vertex_of[t] for t in circuit}
    outer = d.outer_face
    # union-find over surviving faces, edges, vertices
    parent: Dict[Tuple[str, int], Tuple[str, int]] = {}
    nodes = []
    for g in d.inner_face_indices:
        if g != fi:
            nodes.append(("f", g))
    for e in range(d.n_edges):
        if e not in bd_edges:
            nodes.append(("e", e))
    for v in range(d.n_vertices):
        if v not in bd_verts:
            nodes.append(("v", v))
    if not nodes:
        return False
    for node in nodes:
        parent[node] = node
    # the edges join each face to its vertices off the boundary too: such a
    # vertex ends an edge of the face off the boundary, as boundary edges end on it
    for e in range(d.n_edges):
        if e in bd_edges:
            continue
        for dart in (2 * e, 2 * e + 1):
            v = vertex_of[dart]
            if v not in bd_verts:
                _union(parent, ("e", e), ("v", v))
            g = d.face_of[dart]
            if g != outer and g != fi:
                _union(parent, ("e", e), ("f", g))
    roots = {_find(parent, node) for node in nodes}
    return len(roots) > 1


def _find(parent: dict, a):
    """Root of ``a`` in the union-find forest ``parent``, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _union(parent: dict, a, b) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


# ----------------------------------------------------------------------
# surgery


def _restrict(d: DiskDiagram, keep: set, outer: int) -> DiskDiagram:
    """The submap on ``keep`` (closed under opposition), renumbered in dart
    order so pairs stay ``(2i, 2i + 1)``; sigma steps past removed darts."""
    darts = [t for t in range(d.n_darts) if t in keep]
    remap = {t: i for i, t in enumerate(darts)}
    sigma = []
    for t in darts:
        e = d.sigma[t]
        while e not in keep:
            e = d.sigma[e]
        sigma.append(remap[e])
    labels = [d.labels[t] for t in darts]
    return DiskDiagram(sigma, labels, d.alphabet, remap[outer])


def _delete_darts(d: DiskDiagram, dead: Iterable[int], outer_hint: Optional[int]) -> DiskDiagram:
    dead_set = set(dead)
    for t in dead_set:
        if t ^ 1 not in dead_set:
            raise DiagramError("dart deletions must be closed under opposition")
    keep = set(range(d.n_darts)) - dead_set
    if not keep:
        return DiskDiagram.single_vertex(d.alphabet)
    if outer_hint is None or outer_hint in dead_set:
        raise DiagramError("need a surviving outer dart")
    return _restrict(d, keep, outer_hint)


def remove_spur(d: DiskDiagram, dart: int) -> DiskDiagram:
    """Remove a 1-cell leading to a spur; perimeter drops by exactly two."""
    s = next((cand for cand in (dart, dart ^ 1) if d.sigma[cand] == cand), None)
    if s is None:
        raise DiagramError("edge has no valence-1 endpoint")
    # the outer face's dart after s; not s itself, whose vertex has valence 1
    return _delete_darts(d, (s, s ^ 1), d.sigma[s ^ 1])


def remove_shell(d: DiskDiagram, face: int | FeatureWitness) -> DiskDiagram:
    """Remove a shell and the longer (boundary-arc) portion of its boundary."""
    w = face
    if not isinstance(face, FeatureWitness):
        w = next((s for s in find_shells(d) if s.face == face), None)
    if w is None or w.kind != "shell":
        raise DiagramError("face is not a shell")
    circuit = d.faces[w.face]
    if len(w.darts) == len(circuit):
        # the whole boundary lies on the boundary path: degenerate single cell
        return DiskDiagram.single_vertex(d.alphabet)
    arc = set(w.darts) | {t ^ 1 for t in w.darts}
    complement = [t for t in circuit if t not in arc]
    hint = complement[0]
    return _delete_darts(d, arc, hint)


def _with_chain(d: DiskDiagram, word: Sequence[int]) -> Tuple[List[int], List[int], List[int]]:
    """``d``'s sigma and labels extended by a chain of new edges reading
    ``word``, joined head to tail at new valence-2 vertices; also the new
    darts ``bs`` in chain direction.  The chain's two ends are left for the
    caller to link."""
    n = d.n_darts
    m = len(word)
    sigma = list(d.sigma) + [0] * (2 * m)
    labels = list(d.labels) + [0] * (2 * m)
    bs = [n + 2 * j for j in range(m)]
    for j in range(m):
        labels[bs[j]] = word[j]
        labels[bs[j] ^ 1] = -word[j]
    for j in range(m - 1):
        sigma[bs[j] ^ 1] = bs[j + 1]
        sigma[bs[j + 1]] = bs[j] ^ 1
    return sigma, labels, bs


def attach_face(
    d: DiskDiagram, pos: int, k: int, word: Sequence[int]
) -> Optional[DiskDiagram]:
    """Glue a new 2-cell reading ``word`` along ``k`` boundary darts.

    ``pos`` indexes the outer orbit; the glued arc is the ``k`` darts from
    there.  ``k == len(word)`` closes a pocket and may merge the arc's two
    end vertices (a pinch); ``k == 0`` hangs the cell at a boundary corner.
    Returns None when the gluing is not possible.
    """
    w = tuple(word)
    L = len(w)
    if L == 0 or k < 0 or k > L:
        return None
    if d.n_darts == 0:
        return DiskDiagram.from_face_word(w, d.alphabet) if k == 0 else None
    O = d.outer_orbit()
    B = len(O)
    if k > B or (k == B and k == L):
        return None
    if any(d.labels[O[(pos + t) % B]] != w[t] for t in range(k)):
        return None
    sigma, labels, outer = _glue(d, pos, k, w)
    return DiskDiagram(sigma, labels, d.alphabet, outer)


def _glue(
    d: DiskDiagram, pos: int, k: int, w: Tuple[int, ...]
) -> Tuple[List[int], List[int], int]:
    """The child's ``(sigma, labels, outer_dart)`` for a gluing that
    ``attach_face`` accepts on a diagram with darts, unchecked."""
    O = d.outer_orbit()
    B = len(O)
    pos %= B
    m = len(w) - k
    sigma, labels, bs = _with_chain(d, w[k:])
    if k == B:
        # face swallows the whole current boundary, new boundary is beta
        q_last = O[(pos + k - 1) % B]
        sigma[q_last ^ 1] = bs[0]
        sigma[bs[0]] = bs[m - 1] ^ 1
        sigma[bs[m - 1] ^ 1] = O[pos]
        return sigma, labels, bs[0] ^ 1
    q_prev = O[(pos - 1) % B]
    if k == 0:
        # hang at the corner before O[pos]
        sigma[q_prev ^ 1] = bs[m - 1] ^ 1
        sigma[bs[m - 1] ^ 1] = bs[0]
        sigma[bs[0]] = O[pos]
        return sigma, labels, bs[0] ^ 1
    q_first = O[pos]
    q_last = O[(pos + k - 1) % B]
    q_next = O[(pos + k) % B]
    if m == 0:
        # closes a pocket
        sigma[q_last ^ 1] = q_first
        sigma[q_prev ^ 1] = q_next
        return sigma, labels, q_next
    sigma[bs[0]] = q_next
    sigma[q_last ^ 1] = bs[0]
    sigma[bs[m - 1] ^ 1] = q_first
    sigma[q_prev ^ 1] = bs[m - 1] ^ 1
    return sigma, labels, bs[0] ^ 1


def add_edge_path(d: DiskDiagram, pos: int, word: Sequence[int]) -> DiskDiagram:
    """Grow a 1-dimensional path at a boundary corner (for tree diagrams)."""
    w = tuple(word)
    if not w:
        return d
    sigma, labels, bs = _with_chain(d, w)
    sigma[bs[-1] ^ 1] = bs[-1] ^ 1
    if d.n_darts == 0:
        sigma[bs[0]] = bs[0]
        return DiskDiagram(sigma, labels, d.alphabet, 1)
    O = d.outer_orbit()
    B = len(O)
    pos %= B
    sigma[O[(pos - 1) % B] ^ 1] = bs[0]
    sigma[bs[0]] = O[pos]
    return DiskDiagram(sigma, labels, d.alphabet, d.outer_dart)


# ----------------------------------------------------------------------
# global shape


def is_topological_disk(d: DiskDiagram) -> bool:
    """A closed 2-cell: faces present, no 1-dimensional parts, simple boundary.
    Asked once per diagram and kept in ``d._disk``.

    A connected planar map with an inner face is a disk exactly when its
    outer circuit leaves no vertex twice.  That test also rejects an edge
    with the outer face on both sides: if both its darts ``q`` and ``q ^ 1``
    are outer, so are the darts after them, ``sigma[q ^ 1]`` and
    ``sigma[q]``, which leave the same vertices as ``q ^ 1`` and ``q``.
    Unless a dart is its own ``sigma`` (its vertex has valence 1), that is
    a vertex left twice; and if both ends of the edge had valence 1, the
    connected map would be that one edge, with no inner face."""
    if d._disk is None:
        disk = d.area >= 1 and d.is_connected and d.euler_characteristic == 2
        if disk:
            vertex_of = d.vertex_of
            tails = [vertex_of[q] for q in d.outer_orbit()]
            disk = len(tails) == len(set(tails))
        d._disk = disk
    return d._disk


def disk_pieces(d: DiskDiagram) -> List[DiskDiagram]:
    """Maximal topological-disk subdiagrams (2-cell blocks)."""
    inner = d.inner_face_indices
    if not inner:
        return []
    outer = d.outer_face
    parent = {fi: fi for fi in inner}
    for e in range(d.n_edges):
        fa, fb = d.face_of[2 * e], d.face_of[2 * e + 1]
        if fa != outer and fb != outer and fa != fb:
            _union(parent, fa, fb)
    groups: Dict[int, List[int]] = {}
    for fi in inner:
        groups.setdefault(_find(parent, fi), []).append(fi)
    pieces = []
    for group in sorted(groups.values()):
        pieces.append(_extract_faces(d, set(group)))
    return pieces


def _extract_faces(d: DiskDiagram, faces_keep: set) -> DiskDiagram:
    keep = {
        t
        for t in range(d.n_darts)
        if d.face_of[t] in faces_keep or d.face_of[t ^ 1] in faces_keep
    }
    outer = next((t for t in sorted(keep) if d.face_of[t] not in faces_keep), None)
    if outer is None:
        raise DiagramError("face extraction lost the outer region")
    return _restrict(d, keep, outer)


# ----------------------------------------------------------------------
# lifting


def vertex_lift(d: DiskDiagram, m: FreeProductModel) -> Dict[int, GroupElement]:
    """Assign group elements to vertices, vertex 0 to the identity.

    Along every dart the label multiplies the element; this is well
    defined exactly when all face labels are relators of the model's
    presentation, and raises LiftError otherwise.  The lift follows
    ``_spanning_darts``, and every dart is checked against it.
    """
    if d.alphabet != m.presentation.names:
        raise LiftError("diagram alphabet does not match the model's presentation")
    vertex_of, labels, image = d.vertex_of, d.labels, m.letter_image
    lifted: Dict[int, GroupElement] = {0: GroupElement.identity()}
    for t in _spanning_darts(d):
        lifted[vertex_of[t ^ 1]] = lifted[vertex_of[t]] * image(labels[t])
    for t in range(d.n_darts):
        g = lifted.get(vertex_of[t])
        if g is not None and lifted[vertex_of[t ^ 1]] != g * image(labels[t]):
            raise LiftError(
                f"inconsistent lift along dart {t}: not a diagram over this presentation"
            )
    if len(lifted) != d.n_vertices:
        raise LiftError("diagram is disconnected")
    return lifted
