"""Hard-coded presentations, their word-problem models, and figure diagrams.

Gallery ids:

* ``thm2``  -- <a, b, c | a b a^-1 b^-1 c, c>, the group Z^2.
* ``thm1``  -- the 7-generator presentation of Z^2 * F_4 with a perimeter-9
  "pentagon" and a perimeter-5 "triangle".
* ``eq1``   -- the 5-generator presentation of Z^2 * F_2 (two perimeter-5
  cells sharing the path c1 c2 c3).
* ``eq2``   -- the 9-generator presentation of Z^2 * F_4 with no big pieces.
* ``torusT`` -- <a1, b1, c1 | b1 a1^-1 c1, a1^-1 b1 c1>, a torus; its
  universal cover is the unit square grid with squares split along the
  (1,-1) diagonal.

The plane coordinates used throughout send a1 (or a) to (1,0), b1 (b) to
(0,1) and c1 to (1,-1); pentagon-type cells cover upper-right half-squares
and triangle-type cells lower-left ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Optional, Tuple

from .presentation import Presentation, TwoComplex, Word, presentation_complex
from .group_models import (
    POINT_HALF,
    FreeProductModel,
    GroupElement,
    is_trivial,
    pack_point,
    unpack_point,
)
from .diagram import (
    DiagramError,
    DiskDiagram,
    LiftError,
    find_cutcells,
    find_shells,
    is_reduced,
    is_topological_disk,
    relator_form_table,
    vertex_lift,
)


def _z(x, y):
    return GroupElement.lattice((x, y))


def _f(*letters):
    return GroupElement.free(letters)


_THM1_PENTAGON = "a2 b1 b2 a2^-1 a1^-1 b2^-1 c1 c2 c3"
# free letters f1..f4 = a2, b2, c2, c3; lattice basis = a, b
_THM1_IMAGES = {
    "a1": _z(1, 0) * _f(-1),
    "a2": _f(1),
    "b1": _z(0, 1) * _f(-2),
    "b2": _f(2),
    "c1": _f(2) * _z(1, -1) * _f(-1, -4, -3),
    "c2": _f(3),
    "c3": _f(4),
}

# id -> (generators, relators, free rank, generator images in Z^2 * F_k)
_GALLERY = {
    "thm2": (
        "a b c",
        ["a b a^-1 b^-1 c", "c"],
        0,
        {"a": _z(1, 0), "b": _z(0, 1), "c": GroupElement.identity()},
    ),
    "thm1": (
        "a1 a2 b1 b2 c1 c2 c3",
        [_THM1_PENTAGON, "a1^-1 b1 c1 c2 c3"],
        4,
        _THM1_IMAGES,
    ),
    # free letters f1, f2 = c2, c3
    "eq1": (
        "a1 b1 c1 c2 c3",
        ["b1 a1^-1 c1 c2 c3", "a1^-1 b1 c1 c2 c3"],
        2,
        {
            "a1": _z(1, 0),
            "b1": _z(0, 1),
            "c1": _z(1, -1) * _f(-2, -1),
            "c2": _f(1),
            "c3": _f(2),
        },
    ),
    # thm1's images and pentagon, its triangle split along d1 and d2
    "eq2": (
        "a1 a2 b1 b2 c1 c2 c3 d1 d2",
        [_THM1_PENTAGON, "b1 c1 d1^-1", "d1 c2 d2^-1", "d2 c3 a1^-1"],
        4,
        {
            **_THM1_IMAGES,
            "d1": _z(1, 0) * _f(-1, -4, -3),
            "d2": _z(1, 0) * _f(-1, -4),
        },
    ),
    "torusT": (
        "a1 b1 c1",
        ["b1 a1^-1 c1", "a1^-1 b1 c1"],
        0,
        {"a1": _z(1, 0), "b1": _z(0, 1), "c1": _z(1, -1)},
    ),
}

GALLERY_IDS = tuple(_GALLERY)

# per gallery, two words whose model images are the lattice basis (1, 0)
# and (0, 1): the commutator of their n-th powers is null-homotopic
LATTICE_BASIS = {
    "thm2": ("a", "b"),
    "thm1": ("a1 a2", "b1 b2"),
    "eq1": ("a1", "b1"),
    "eq2": ("a1 a2", "b1 b2"),
    "torusT": ("a1", "b1"),
}


def presentation(gallery_id: str) -> Tuple[Presentation, FreeProductModel]:
    """A gallery presentation together with its free-product model."""
    if gallery_id not in _GALLERY:
        raise ValueError(f"unknown gallery id {gallery_id!r}")
    gens, relators, free_rank, images = _GALLERY[gallery_id]
    p = Presentation.build(gens, relators)
    return p, FreeProductModel(p, 2, free_rank, images)


def complex_for(gallery_id: str) -> TwoComplex:
    return presentation_complex(presentation(gallery_id)[0])


# ----------------------------------------------------------------------
# figure diagrams


def figure_diagram(fig: int, n: int) -> DiskDiagram:
    """The n-by-n grid diagram families behind the two figure examples.

    ``fig=1`` (over thm2): each unit square is a commutator pentagon
    enclosing a c-monogon at its base corner; boundary [a^n, b^n], area
    2 n^2.  ``fig=3`` (over eq1): each square is split by the length-3
    diagonal c1 c2 c3 into two perimeter-5 cells; boundary [a1^n, b1^n],
    area 2 n^2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if fig == 1:
        return _figure1(n)
    if fig == 3:
        return _figure3(n)
    raise ValueError(f"no figure diagram {fig!r} (expected 1 or 3)")


def _grid(n: int, per_square: int):
    """Darts and labels of the n-by-n grid's edges.

    Edge ids run over the horizontal a-edges h(x,y) (x<n, y<=n), the
    vertical b-edges v(x,y) (x<=n, y<n), then ``per_square`` edges
    s(x,y,i) inside each square, labelled 3 + i.  The returned maps give
    each edge's positive dart: h to (x+1,y), v to (x,y+1).
    """
    ids = count()
    h = {(x, y): 2 * next(ids) for y in range(n + 1) for x in range(n)}
    v = {(x, y): 2 * next(ids) for y in range(n) for x in range(n + 1)}
    s = {
        (x, y, i): 2 * next(ids)
        for y in range(n)
        for x in range(n)
        for i in range(per_square)
    }
    edge_labels = [1] * len(h) + [2] * len(v) + [3 + i for (_x, _y, i) in s]
    labels = [sign * lab for lab in edge_labels for sign in (1, -1)]
    return h, v, s, labels


def _set_rotation(sigma: list, cyc: list) -> None:
    """Make ``cyc`` the cyclic order of the darts leaving one vertex."""
    for i, dd in enumerate(cyc):
        sigma[dd] = cyc[(i + 1) % len(cyc)]


def _figure1(n: int) -> DiskDiagram:
    # c(x,y,0): the monogon loop at the base corner of each square
    h, v, c, labels = _grid(n, 1)
    sigma = [0] * len(labels)
    # Pentagon of square (x,y) reads a b a^-1 b^-1 c; its c-loop hangs at
    # the base corner (x,y), with the monogon (reading c^-1) inside.
    for y in range(n + 1):
        for x in range(n + 1):
            cyc = []
            if y < n:
                cyc.append(v[x, y])
            if x < n and y < n:
                cyc += [c[x, y, 0], c[x, y, 0] + 1]
            if x < n:
                cyc.append(h[x, y])
            if y > 0:
                cyc.append(v[x, y - 1] ^ 1)
            if x > 0:
                cyc.append(h[x - 1, y] ^ 1)
            _set_rotation(sigma, cyc)
    return DiskDiagram(sigma, labels, ("a", "b", "c"), h[0, 0] ^ 1)


def _figure3(n: int) -> DiskDiagram:
    # diag(x,y,i): dart along c_{i+1}, from (x,y+1) towards (x+1,y)
    h, v, diag, labels = _grid(n, 3)
    sigma = [0] * len(labels)
    # interior diagonal vertices of square (x,y): between c1,c2 and c2,c3
    for y in range(n):
        for x in range(n):
            for i in (0, 1):
                _set_rotation(sigma, [diag[x, y, i] ^ 1, diag[x, y, i + 1]])
    # grid vertices: cyclic order (v_out, h_out, diag-start, S, W, diag-end)
    for y in range(n + 1):
        for x in range(n + 1):
            cyc = []
            if y < n:
                cyc.append(v[x, y])
            if x < n:
                cyc.append(h[x, y])
            if x < n and y > 0:
                cyc.append(diag[x, y - 1, 0])  # c1 leaving the top-left corner
            if y > 0:
                cyc.append(v[x, y - 1] ^ 1)
            if x > 0:
                cyc.append(h[x - 1, y] ^ 1)
            if x > 0 and y < n:
                cyc.append(diag[x - 1, y, 2] ^ 1)  # c3 arriving at the bottom-right
            _set_rotation(sigma, cyc)
    return DiskDiagram(sigma, labels, ("a1", "b1", "c1", "c2", "c3"), h[0, 0] ^ 1)


# ----------------------------------------------------------------------
# plane coordinates and the corner-cell classifier


@dataclass(frozen=True)
class PlanarCoords:
    """Vertex lattice coordinates and, per inner face, its half-square."""

    vertex_coords: Tuple[Tuple[int, int], ...]
    face_squares: Dict[int, Tuple[Tuple[int, int], str]]  # face -> (base, "ur"/"ll")


def _corners(base: Tuple[int, int], kind: str) -> set:
    """Lattice corners of the upper-right or lower-left half of a square."""
    x0, y0 = base
    if kind == "ur":
        return {(x0 + 1, y0), (x0 + 1, y0 + 1), (x0, y0 + 1)}
    return {(x0, y0), (x0 + 1, y0), (x0, y0 + 1)}


@dataclass(frozen=True)
class CornerWitness:
    kind: str  # "shell" | "cutcell3"
    face: int


class _Tables:
    """What the corner classifier reads of one model, resolved once: its
    alphabet, the relator forms of its presentation complex, each signed
    letter's lattice step packed as ``pack_point(y, x)`` (so the least
    packed point is the least by y, then x: the sweep order), the largest
    step coordinate, the letters c1, c2 and c3 that the alphabet has,
    each mapped to its name, and the shape (``_shape``) of each face word
    met so far, all of which the model sends to the identity.  A shape
    places a face on a half-square exactly when its points are
    ``_corners(base, kind)``."""

    __slots__ = ("names", "forms", "step", "reach", "diagonal", "shapes")

    def __init__(self, m: FreeProductModel):
        self.names = m.presentation.names
        self.forms = relator_form_table(presentation_complex(m.presentation))
        self.step = {x: pack_point(dy, dx) for x, (dx, dy) in m.letter_pi.items()}
        self.reach = max((abs(c) for v in m.letter_pi.values() for c in v), default=0)
        self.diagonal = {i: nm for i, nm in enumerate(self.names, 1) if nm in ("c1", "c2", "c3")}
        self.shapes: Dict[Tuple[int, ...], Optional[Tuple[frozenset, int, str]]] = {}


def _tables(m: FreeProductModel) -> _Tables:
    """The model's ``_Tables``, made on its first use and kept on the model."""
    if m._tables is None:
        m._tables = _Tables(m)
    return m._tables


def _xy(p: int) -> Tuple[int, int]:
    """The point ``(x, y)`` of a classifier point ``pack_point(y, x)``."""
    y, x = unpack_point(p)
    return x, y


def _shape(w: Tuple[int, ...], m: FreeProductModel) -> Optional[Tuple[frozenset, int, str]]:
    """The shape of a face reading ``w``, a word whose projected path
    closes: the set of its vertex points, the base of the half-square whose
    corners they are, and its kind, "ur" or "ll", all relative to the
    face's first vertex and packed as classifier points.  The base is the
    least x and the least y of the points, and the face covers the
    half-square exactly when its points are ``_corners(base, kind)``; None
    when they are neither kind's corners."""
    pts, x, y = set(), 0, 0
    for v in w:
        pts.add((x, y))
        dx, dy = m.letter_pi[v]
        x, y = x + dx, y + dy
    x0, y0 = base = min(p[0] for p in pts), min(p[1] for p in pts)
    for kind in ("ur", "ll"):
        if pts == _corners(base, kind):
            return frozenset(pack_point(b, a) for a, b in pts), pack_point(y0, x0), kind
    return None


def _coordinates_along(
    d: DiskDiagram, m: FreeProductModel
) -> Tuple[list, Dict[int, Optional[Tuple[frozenset, int, str]]]]:
    """The point of each dart's tail vertex, as a classifier point, and
    each inner face's ``_shape``: a half-square exactly when the face's
    points are ``_corners(base, kind)``, and None otherwise, on which the
    callers raise DiagramError.

    One walk over the darts places them, dart 0 at the origin: a dart
    shares its point with ``sigma[d]``, and the point of ``d ^ 1`` is
    ``d``'s plus the step of ``d``'s label.  The walk enters each vertex
    orbit once, through the first dart of it that it reaches, and counts
    the orbits it enters, so no vertex orbits are built.  A single vertex
    has no dart, and it goes through the same alphabet check.

    Raises LiftError as ``vertex_lift`` does: when the alphabet is not the
    model's, when the diagram is disconnected (a dart is not reached), and
    when it is not a diagram over the model's presentation.  A connected
    planar map lifts consistently exactly when every inner face reads a
    trivial word, so each inner face is checked once, in face order,
    before any caller reads a shape: a rotation of a relator or of its
    inverse passes by lookup in the complex's ``relator_form_table``, any
    other word goes through the model's word problem, and a word that
    passed is kept with its shape.  A map that is not planar is checked
    by ``vertex_lift`` itself.  The walk reaches each dart along a path
    of at most E edges, so a point, and the difference of two points,
    stays in the packing's range while 2 E times the longest step is
    below ``POINT_HALF``; a larger map raises ValueError."""
    t = _tables(m)
    if d.alphabet != t.names:
        raise LiftError("diagram alphabet does not match the model's presentation")
    if 2 * d.n_edges * t.reach >= POINT_HALF:
        raise ValueError("diagram too large for packed lattice points")
    sigma, labels, step = d.sigma, d.labels, t.step
    n = len(sigma)
    pt: list = [None] * n
    placed = []
    vertices = 1
    if n:
        e = 0
        while pt[e] is None:
            pt[e] = 0
            placed.append(e)
            e = sigma[e]
    # ``placed`` grows as the loop reads it: each vertex entered is walked too
    for a in placed:
        b = a ^ 1
        if pt[b] is None:
            p = pt[a] + step[labels[a]]
            vertices += 1
            e = b
            while pt[e] is None:
                pt[e] = p
                placed.append(e)
                e = sigma[e]
    if len(placed) != n:
        raise LiftError("diagram is disconnected")
    if n and vertices - n // 2 + len(d.faces) != 2:
        vertex_lift(d, m)
    known, shapes = t.shapes, {}
    for fi in d.inner_face_indices:
        w = d.face_word_ints(fi)
        shape = known.get(w, False)
        if shape is False:
            if w not in t.forms and not is_trivial(Word(w, d.alphabet), m):
                raise LiftError(
                    f"face {fi} reads a nontrivial word: not a diagram over this presentation"
                )
            shape = known[w] = _shape(w, m)
        shapes[fi] = shape
    return pt, shapes


def torus_coordinates(d: DiskDiagram, m: FreeProductModel) -> PlanarCoords:
    """Vertex lattice coordinates in the plane tessellation of the torus
    cover, and the half-square each inner face covers.

    The coordinates are the lattice projection of the generator images,
    summed along the dart walk of ``_coordinates_along`` from vertex 0,
    each vertex read at its least dart; no vertex lift is built.  As with
    ``vertex_lift``, a diagram whose alphabet is not the model's, a
    disconnected one, and one with an inner face whose word the model
    does not send to the identity raise LiftError.  A face
    whose points are not ``_corners(base, kind)`` of a half-square raises
    DiagramError.  A face's half-square is its word's shape placed at its
    first vertex: the face's word is trivial, so its projected path closes
    on the vertices' points.  A single vertex goes through the same walk,
    so over another alphabet it raises LiftError too.

    Works over any gallery presentation whose rank-2 lattice projection
    sends the a-generator to (1,0), the b-generator to (0,1) and c1 to
    (1,-1): pentagon-type faces land on upper-right half-squares,
    triangle-type faces on lower-left ones.
    """
    pt, shapes = _coordinates_along(d, m)
    squares = {}
    for fi, shape in shapes.items():
        if shape is None:
            raise DiagramError(f"face {fi} does not cover a half-square")
        squares[fi] = (_xy(pt[d.faces[fi][0]] + shape[1]), shape[2])
    return PlanarCoords(tuple(_xy(pt[v[0]] if v else 0) for v in d.vertices), squares)


def corner_classification(d: DiskDiagram, m: FreeProductModel) -> CornerWitness:
    """Classify the corner cell of a reduced disk over the thm1 complex.

    Finds the sweep point p (minimal x among points of minimal y of the
    plane image), picks a cell whose image contains p, and returns the
    predicted witness: a pentagon containing p is a shell; otherwise the
    pentagon abutting the corner triangle across its diagonal is a shell
    (when the rest of its boundary is free) or a strong cutcell.  A corner
    triangle without a c1, c2 and c3 dart has no such diagonal and raises
    DiagramError.

    The disk and reducedness tests are the diagram's kept
    ``is_topological_disk`` and ``is_reduced`` answers, which the
    enumerator seeds for the disks it builds.  The dart walk of
    ``_coordinates_along`` places the points without building the vertex
    orbits, and the faces' half-squares are those of
    ``torus_coordinates``.  Every vertex of a disk has a dart and lies on
    an inner face, so p is the least dart point.
    """
    if d.area < 2:
        raise DiagramError("corner classification needs at least two cells")
    if not is_topological_disk(d):
        raise DiagramError("corner classification needs a topological disk")
    if not is_reduced(d):
        raise DiagramError("corner classification needs a reduced diagram")
    pt, shapes = _coordinates_along(d, m)
    p = min(pt)
    faces = d.faces
    holders = []
    for fi, shape in shapes.items():
        if shape is None:
            raise DiagramError(f"face {fi} does not cover a half-square")
        if p - pt[faces[fi][0]] in shape[0]:
            holders.append(fi)
    pent_holders = [fi for fi in holders if shapes[fi][2] == "ur"]
    if pent_holders:
        return CornerWitness("shell", pent_holders[0])
    tri = holders[0]
    # the triangle's left and bottom sides are free; the cases split on how
    # much of its diagonal c1 c2 c3 is free as well
    outer = d.outer_face
    diagonal = _tables(m).diagonal
    c_dart = {}
    for t in d.faces[tri]:
        name = diagonal.get(abs(d.labels[t]))
        if name is not None:
            c_dart[name] = t
    if len(c_dart) < 3:
        raise DiagramError(f"corner triangle {tri} has no c1 c2 c3 diagonal")
    free_c = {name: d.face_of[t ^ 1] == outer for name, t in c_dart.items()}
    if free_c["c1"] or free_c["c3"]:
        # the free diagonal end extends the left-bottom arc past half
        return CornerWitness("shell", tri)
    if free_c["c2"]:
        # two separated boundary arcs, each with an edge: R itself is strong
        return CornerWitness("cutcell3", tri)
    # c1 is not free, so the face across it is inner
    q = d.face_of[c_dart["c1"] ^ 1]
    if shapes[q][2] != "ur":
        raise DiagramError("cell across the corner diagonal is not a pentagon")
    free = all(
        d.face_of[t ^ 1] == outer
        for t in d.faces[q]
        if abs(d.labels[t]) not in diagonal
    )
    return CornerWitness("shell" if free else "cutcell3", q)


def confirm_corner_witness(d: DiskDiagram, w: CornerWitness) -> bool:
    """Check the predicted witness face against the feature detectors."""
    return any(s.face == w.face for s in find_shells(d)) or any(
        c.face == w.face for c in find_cutcells(d, 3)
    )


def find_face_by_corners(
    d: DiskDiagram, coords: PlanarCoords, corners: set
) -> Optional[int]:
    """Locate the inner face covering a given half-square corner set."""
    for fi, (base, kind) in coords.face_squares.items():
        if _corners(base, kind) == set(corners):
            return fi
    return None
