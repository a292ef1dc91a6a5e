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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def _code_from(start: int, sigma: Sequence[int], labels: Sequence[int]) -> Tuple[int, ...]:
    """The map relabelled in breadth-first order from ``start`` (each dart's
    ``sigma`` and opposite), as one flat tuple of (sigma, opposite, label)
    triples."""
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
        out += (ra, rb, labels[d])
    return tuple(out)


def _map_code(
    sigma: Sequence[int], labels: Sequence[int], outer_orbit: Sequence[int]
) -> Tuple[int, ...]:
    """Minimal relabelling code over canonical starts and both orientations.

    Isomorphisms preserve the outer face, so starts can be restricted to
    the outer darts where the boundary label word attains its least
    rotation (and the mirrored analogue for orientation-reversing maps).
    The code does not depend on which dart ``outer_orbit`` starts at."""
    O = outer_orbit
    B = len(O)
    outer_labels = [labels[q] for q in O]
    codes = [_code_from(O[i], sigma, labels) for i in min_rotation_starts(outer_labels)]
    # mirror image: reversed rotation, outer region on the opposite sides
    sigma_inv = _inverse(sigma)
    mirror_labels = [-outer_labels[0]] + [-x for x in reversed(outer_labels[1:])]
    for j in min_rotation_starts(mirror_labels):
        codes.append(_code_from(O[(B - j) % B] ^ 1, sigma_inv, labels))
    return min(codes)


class DiskDiagram:
    """Immutable planar map with labeled darts and a distinguished outer face.

    Since ``sigma``, ``labels`` and ``alphabet`` are tuples, a fact about
    the map stays true for the object's life, so a few are computed on
    first use and kept: the vertices, the canonical code, whether the map
    has a spur or shell (``dehn_props``; the witness lists are not kept),
    and the invariant bound of its boundary word, with the bound object
    that gave it (``enumeration.is_minimal``, which reuses it only for that
    same object).
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
        "_bound",
    )

    def __init__(
        self,
        sigma: Sequence[int],
        labels: Sequence[int],
        alphabet: Sequence[str],
        outer_dart: Optional[int],
    ):
        self.sigma: Tuple[int, ...] = tuple(sigma)
        self.labels: Tuple[int, ...] = tuple(labels)
        self.alphabet: Tuple[str, ...] = tuple(alphabet)
        self.outer_dart = outer_dart
        n = len(self.sigma)
        if n % 2 or len(self.labels) != n:
            raise DiagramError("darts must come in labelled opposite pairs")
        if sorted(self.sigma) != list(range(n)):
            raise DiagramError("sigma is not a permutation of the darts")
        for d in range(0, n, 2):
            if self.labels[d] == 0 or self.labels[d] != -self.labels[d ^ 1]:
                raise DiagramError("opposite darts must carry inverse labels")
            if abs(self.labels[d]) > len(self.alphabet):
                raise DiagramError("label outside alphabet")
        if n == 0:
            if outer_dart is not None:
                raise DiagramError("single-vertex diagram has no outer dart")
        elif outer_dart is None or not 0 <= outer_dart < n:
            raise DiagramError("missing or out-of-range outer dart")
        # every use reads the faces; the vertices wait for their first use
        self.faces, self.face_of = _orbits(self.sigma, 1)
        self.outer_face = self.face_of[outer_dart] if n else None
        self.inner_face_indices = tuple(i for i in range(len(self.faces)) if i != self.outer_face)
        self.area = len(self.inner_face_indices)
        self._vertex_of = None
        self._vertices = None
        self._canon = None
        self._spur_or_shell = None
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

    def vertex_of(self, d: int) -> int:
        self._compute_vertices()
        return self._vertex_of[d]

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
        return tuple(self.labels[d] for d in self.boundary_circuit())

    @property
    def perimeter(self) -> int:
        return len(self.outer_orbit())

    @property
    def is_connected(self) -> bool:
        n = self.n_darts
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            d = stack.pop()
            for e in (self.sigma[d], d ^ 1):
                if not seen[e]:
                    seen[e] = True
                    count += 1
                    stack.append(e)
        return count == n

    @property
    def euler_characteristic(self) -> int:
        if self.n_darts == 0:
            return 2  # one vertex, no edges, the outer face alone
        return self.n_vertices - self.n_edges + len(self.faces)

    # ------------------------------------------------------------------
    # isomorphism

    def canonical_code(self) -> Tuple:
        """The diagram's identity up to isomorphism, mirror images
        included: the alphabet and ``_map_code``'s code, computed once."""
        if self._canon is None:
            code = _map_code(self.sigma, self.labels, self.outer_orbit()) if self.n_darts else ()
            self._canon = (self.alphabet, code)
        return self._canon

    def mirror(self) -> "DiskDiagram":
        outer = None if self.outer_dart is None else self.outer_dart ^ 1
        return DiskDiagram(_inverse(self.sigma), self.labels, self.alphabet, outer)

    def __eq__(self, other) -> bool:
        return isinstance(other, DiskDiagram) and self.canonical_code() == other.canonical_code()

    def __hash__(self) -> int:
        return hash(self.canonical_code())

    def __repr__(self) -> str:
        return (
            f"<DiskDiagram area={self.area} perimeter={self.perimeter} "
            f"V={self.n_vertices} E={self.n_edges}>"
        )

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        return json.dumps(
            {
                "darts": self.n_darts,
                "opposite": [d ^ 1 for d in range(self.n_darts)],
                "sigma": list(self.sigma),
                "labels": [
                    self.alphabet[abs(x) - 1] + ("" if x > 0 else "^-1") for x in self.labels
                ],
                "outer_face_dart": self.outer_dart,
                "alphabet": list(self.alphabet),
            },
            separators=(",", ":"),
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
            tail = self.vertex_of(pos)
            head = self.vertex_of(pos ^ 1)
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
    same cell of the target complex).
    """
    outer = d.outer_face
    for dart in range(d.n_darts):
        fa = d.face_of[dart]
        fb = d.face_of[dart ^ 1]
        if fa == outer or fb == outer or fa == fb:
            continue
        if dart ^ 1 < dart:
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
    return reduced_witness(d) is None


def find_spurs(d: DiskDiagram) -> List[FeatureWitness]:
    """Valence-1 vertices, each with its leading edge."""
    out = []
    for v, orbit in enumerate(d.vertices):
        if len(orbit) == 1:
            out.append(FeatureWitness("spur", vertex=v, darts=(orbit[0],)))
    return out


def find_shells(d: DiskDiagram) -> List[FeatureWitness]:
    """Inner faces with more than half their perimeter on one boundary arc.

    The arc must be contiguous on the boundary attaching map as well: at
    each intermediate vertex no other structure may interrupt, i.e.
    ``sigma`` must step straight from one free dart to the opposite of the
    previous one.  If a face traverses an edge twice, each traversal
    counts separately (the definition is about attaching maps).
    """
    outer = d.outer_face
    out = []
    for fi in d.inner_face_indices:
        circuit = d.faces[fi]
        free = [d.face_of[t ^ 1] == outer for t in circuit]
        # linked[t]: positions t-1 and t are both free and consecutive on
        # the boundary circle (no other structure at the shared vertex)
        linked = [
            free[t] and free[t - 1] and d.sigma[circuit[t]] == circuit[t - 1] ^ 1
            for t in range(len(circuit))
        ]
        best = max(_cyclic_runs(free, linked), key=len, default=[])
        if 2 * len(best) > len(circuit):
            out.append(FeatureWitness("shell", face=fi, darts=tuple(circuit[u] for u in best)))
    return out


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


def _outer_circle_slots(d: DiskDiagram) -> List[Tuple[str, int]]:
    """The boundary circle as alternating vertex-visit and edge slots."""
    slots: List[Tuple[str, int]] = []
    for q in d.outer_orbit():
        slots.append(("v", d.vertex_of(q)))
        slots.append(("e", q >> 1))
    return slots


def find_cutcells(d: DiskDiagram, defn: int) -> List[FeatureWitness]:
    """Cutcells per definition 1, 2 or 3.

    1. removing the closed cell disconnects what remains;
    2. the preimage of the cell boundary in the boundary circle has at
       least two components;
    3. same, with every component containing an edge.
    """
    if defn not in (1, 2, 3):
        raise DiagramError(f"cutcell definition must be 1, 2 or 3, got {defn}")
    out = []
    for fi in d.inner_face_indices:
        if defn == 1:
            if _removal_disconnects(d, fi):
                out.append(FeatureWitness("cutcell", defn=1, face=fi))
        else:
            comps = _boundary_preimage_components(d, fi)
            if len(comps) < 2:
                continue
            if defn == 3 and not all(any(kind == "e" for kind, _ in comp) for comp in comps):
                continue
            out.append(
                FeatureWitness(
                    "cutcell",
                    defn=defn,
                    face=fi,
                    components=tuple(tuple(f"{k}{i}" for k, i in comp) for comp in comps),
                )
            )
    return out


def _removal_disconnects(d: DiskDiagram, fi: int) -> bool:
    circuit = d.faces[fi]
    bd_edges = {t >> 1 for t in circuit}
    bd_verts = {d.vertex_of(t) for t in circuit}
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
            v = d.vertex_of(dart)
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


def _boundary_preimage_components(d: DiskDiagram, fi: int) -> List[List[Tuple[str, int]]]:
    circuit = d.faces[fi]
    bd_edges = {t >> 1 for t in circuit}
    bd_verts = {d.vertex_of(t) for t in circuit}
    slots = _outer_circle_slots(d)
    hit = [
        (kind == "e" and idx in bd_edges) or (kind == "v" and idx in bd_verts)
        for kind, idx in slots
    ]
    linked = [hit[t] and hit[t - 1] for t in range(len(hit))]
    return [[slots[u] for u in run] for run in _cyclic_runs(hit, linked)]


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
    s = None
    for cand in (dart, dart ^ 1):
        if len(d.vertices[d.vertex_of(cand)]) == 1:
            s = cand
            break
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
    """A closed 2-cell: faces present, no 1-dimensional parts, simple boundary."""
    if d.area < 1 or not d.is_connected or d.euler_characteristic != 2:
        return False
    outer = d.outer_face
    for e in range(d.n_edges):
        if d.face_of[2 * e] == outer and d.face_of[2 * e + 1] == outer:
            return False
    tails = [d.vertex_of(q) for q in d.outer_orbit()]
    return len(tails) == len(set(tails))


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


def vertex_lift(
    d: DiskDiagram, m: FreeProductModel, basepoint: int = 0
) -> Dict[int, GroupElement]:
    """Assign group elements to vertices, basepoint to the identity.

    Along every dart the label multiplies the element; this is well
    defined exactly when all face labels are relators of the model's
    presentation, and raises LiftError otherwise.
    """
    if d.alphabet != m.presentation.names:
        raise LiftError("diagram alphabet does not match the model's presentation")
    if d.n_darts == 0:
        return {0: GroupElement.identity()}
    lifted: Dict[int, GroupElement] = {basepoint: GroupElement.identity()}
    stack = [basepoint]
    while stack:
        v = stack.pop()
        g = lifted[v]
        for t in d.vertices[v]:
            h = g * m.letter_image(d.labels[t])
            u = d.vertex_of(t ^ 1)
            if u in lifted:
                if lifted[u] != h:
                    raise LiftError(
                        f"inconsistent lift along dart {t}: not a diagram over this presentation"
                    )
            else:
                lifted[u] = h
                stack.append(u)
    if len(lifted) != d.n_vertices:
        raise LiftError("diagram is disconnected")
    return lifted
