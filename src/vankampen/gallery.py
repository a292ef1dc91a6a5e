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

from .presentation import Presentation
from .group_models import FreeProductModel, GroupElement
from .diagram import (
    DiagramError,
    DiskDiagram,
    find_cutcells,
    find_shells,
    is_topological_disk,
    reduced_witness,
    vertex_lift,
)

GALLERY_IDS = ("thm2", "thm1", "eq1", "eq2", "torusT")


def _z(x, y):
    return GroupElement.lattice((x, y))


def _f(*letters):
    return GroupElement.free(letters)


def presentation(gallery_id: str) -> Tuple[Presentation, FreeProductModel]:
    """A gallery presentation together with its free-product model."""
    if gallery_id == "thm2":
        p = Presentation.build("a b c", ["a b a^-1 b^-1 c", "c"])
        m = FreeProductModel(
            p, 2, 0, {"a": _z(1, 0), "b": _z(0, 1), "c": GroupElement.identity()}
        )
        return p, m
    if gallery_id == "thm1":
        p = Presentation.build(
            "a1 a2 b1 b2 c1 c2 c3",
            ["a2 b1 b2 a2^-1 a1^-1 b2^-1 c1 c2 c3", "a1^-1 b1 c1 c2 c3"],
        )
        # free letters f1..f4 = a2, b2, c2, c3; lattice basis = a, b
        m = FreeProductModel(
            p,
            2,
            4,
            {
                "a1": _z(1, 0) * _f(-1),
                "a2": _f(1),
                "b1": _z(0, 1) * _f(-2),
                "b2": _f(2),
                "c1": _f(2) * _z(1, -1) * _f(-1, -4, -3),
                "c2": _f(3),
                "c3": _f(4),
            },
        )
        return p, m
    if gallery_id == "eq1":
        p = Presentation.build(
            "a1 b1 c1 c2 c3", ["b1 a1^-1 c1 c2 c3", "a1^-1 b1 c1 c2 c3"]
        )
        # free letters f1, f2 = c2, c3
        m = FreeProductModel(
            p,
            2,
            2,
            {
                "a1": _z(1, 0),
                "b1": _z(0, 1),
                "c1": _z(1, -1) * _f(-2, -1),
                "c2": _f(1),
                "c3": _f(2),
            },
        )
        return p, m
    if gallery_id == "eq2":
        p = Presentation.build(
            "a1 a2 b1 b2 c1 c2 c3 d1 d2",
            [
                "a2 b1 b2 a2^-1 a1^-1 b2^-1 c1 c2 c3",
                "b1 c1 d1^-1",
                "d1 c2 d2^-1",
                "d2 c3 a1^-1",
            ],
        )
        # free letters f1..f4 = a2, b2, c2, c3
        m = FreeProductModel(
            p,
            2,
            4,
            {
                "a1": _z(1, 0) * _f(-1),
                "a2": _f(1),
                "b1": _z(0, 1) * _f(-2),
                "b2": _f(2),
                "c1": _f(2) * _z(1, -1) * _f(-1, -4, -3),
                "c2": _f(3),
                "c3": _f(4),
                "d1": _z(1, 0) * _f(-1, -4, -3),
                "d2": _z(1, 0) * _f(-1, -4),
            },
        )
        return p, m
    if gallery_id == "torusT":
        p = Presentation.build("a1 b1 c1", ["b1 a1^-1 c1", "a1^-1 b1 c1"])
        m = FreeProductModel(
            p, 2, 0, {"a1": _z(1, 0), "b1": _z(0, 1), "c1": _z(1, -1)}
        )
        return p, m
    raise ValueError(f"unknown gallery id {gallery_id!r}")


def complex_for(gallery_id: str):
    from .presentation import presentation_complex

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


def torus_coordinates(d: DiskDiagram, m: FreeProductModel) -> PlanarCoords:
    """Project vertex lifts to the plane tessellation of the torus cover.

    Works over any gallery presentation whose lattice projection sends the
    a-generator to (1,0), the b-generator to (0,1) and c1 to (1,-1):
    pentagon-type faces land on upper-right half-squares, triangle-type
    faces on lower-left ones.
    """
    if d.n_darts == 0:
        return PlanarCoords(((0, 0),), {})
    lifts = vertex_lift(d, m)
    coords: list = [None] * d.n_vertices
    for v, g in lifts.items():
        part = g.lattice_part()
        coords[v] = (part[0], part[1]) if part else (0, 0)
    face_squares = {}
    for fi in d.inner_face_indices:
        pts = {coords[d.vertex_of(t)] for t in d.faces[fi]}
        xs = {p[0] for p in pts}
        ys = {p[1] for p in pts}
        if len(pts) != 3 or len(xs) != 2 or len(ys) != 2:
            raise DiagramError(f"face {fi} does not cover a half-square")
        base = (min(xs), min(ys))
        x0, y0 = base
        if (x0, y0) not in pts:
            kind = "ur"
        elif (x0 + 1, y0 + 1) not in pts:
            kind = "ll"
        else:
            raise DiagramError(f"face {fi} does not cover a half-square")
        face_squares[fi] = (base, kind)
    return PlanarCoords(tuple(coords), face_squares)


def corner_classification(d: DiskDiagram, m: FreeProductModel) -> CornerWitness:
    """Classify the corner cell of a reduced disk over the thm1 complex.

    Finds the sweep point p (minimal x among points of minimal y of the
    plane image), picks a cell whose image contains p, and returns the
    predicted witness: a pentagon containing p is a shell; otherwise the
    pentagon abutting the corner triangle across its diagonal is a shell
    (when the rest of its boundary is free) or a strong cutcell.
    """
    if d.area < 2:
        raise DiagramError("corner classification needs at least two cells")
    if not is_topological_disk(d):
        raise DiagramError("corner classification needs a topological disk")
    if reduced_witness(d) is not None:
        raise DiagramError("corner classification needs a reduced diagram")
    pc = torus_coordinates(d, m)
    corners_of = {fi: _corners(base, kind) for fi, (base, kind) in pc.face_squares.items()}
    p = min((c for cs in corners_of.values() for c in cs), key=lambda c: (c[1], c[0]))
    pentagons = {fi for fi, (_, kind) in pc.face_squares.items() if kind == "ur"}
    holders = sorted(fi for fi, cs in corners_of.items() if p in cs)
    pent_holders = [fi for fi in holders if fi in pentagons]
    if pent_holders:
        return CornerWitness("shell", pent_holders[0])
    tri = holders[0]
    # the triangle's left and bottom sides are free; the cases split on how
    # much of its diagonal c1 c2 c3 is free as well
    outer = d.outer_face
    c_dart = {}
    for t in d.faces[tri]:
        name = d.alphabet[abs(d.labels[t]) - 1]
        if name in ("c1", "c2", "c3"):
            c_dart[name] = t
    free_c = {name: d.face_of[t ^ 1] == outer for name, t in c_dart.items()}
    if free_c["c1"] or free_c["c3"]:
        # the free diagonal end extends the left-bottom arc past half
        return CornerWitness("shell", tri)
    if free_c["c2"]:
        # two separated boundary arcs, each with an edge: R itself is strong
        return CornerWitness("cutcell3", tri)
    q = d.face_of[c_dart["c1"] ^ 1]
    if q not in pentagons:
        raise DiagramError("cell across the corner diagonal is not a pentagon")
    c_idx = {d.alphabet.index(nm) + 1 for nm in ("c1", "c2", "c3")}
    free = all(
        d.face_of[t ^ 1] == outer
        for t in d.faces[q]
        if abs(d.labels[t]) not in c_idx
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
