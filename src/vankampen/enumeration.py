"""Exhaustive diagram generation and two independent minimal-area oracles.

The enumerator grows reduced topological-disk diagrams one 2-cell at a
time, gluing each relator form along every matching boundary arc that
creates no cancelling pair and deduplicating up to isomorphism, so every
reduced disk of area at most the bound is produced exactly once.

``area_oracle`` answers minimal-area queries two ways: ``relator_bfs``
searches the word moves (insert a relator rotation anywhere, freely and
cyclically reducing) with an exact-arithmetic lower-bound heuristic, and
``diagram_search`` takes minima over the enumerated disks, assembling
non-disk fillings by splitting the boundary word at cut vertices.  It
splits only where the first part can be null-homotopic: a filled part's
exponent vector is an integer combination of the relators' vectors, so
its class modulo their rational span is zero, and a cut whose part has a
nonzero class could only have given "no filling".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .presentation import (
    CyclicWord,
    TwoComplex,
    Word,
    invert_ints,
    least_rotation,
    reduce_ints,
)
from .group_models import FreeProductModel, is_trivial
from .diagram import (
    DiskDiagram,
    _face_word_from,
    attach_face,
    cancelling_partner,
    is_topological_disk,
    reduced_witness,
    relator_forms,
)


class ResourceCapError(RuntimeError):
    """An enumeration or search exceeded its configured resource cap."""


@dataclass(frozen=True)
class EnumerationConfig:
    max_area: int
    max_perimeter: Optional[int] = None
    max_candidates: Optional[int] = None

    def __post_init__(self):
        if self.max_area < 1:
            raise ValueError("max_area must be at least 1")


def canonical_cyclic(letters: Sequence[int]) -> Tuple[int, ...]:
    """Canonical form of a boundary word: free+cyclic reduction, then the
    least rotation over the word and its inverse (mirror diagrams fill the
    inverse word)."""
    w = list(reduce_ints(letters))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    if not w:
        return ()
    w = tuple(w)
    inv = invert_ints(w)
    i = least_rotation(w)
    j = least_rotation(inv)
    return min(w[i:] + w[:i], inv[j:] + inv[:j])


def _gluings(
    parent: DiskDiagram, forms: Sequence[Tuple[int, ...]], max_len: int
) -> Iterator[Tuple[int, int, Tuple[int, ...], bool]]:
    """Every gluing ``(pos, k, w, cancels)`` of a form ``w`` along ``k >= 1``
    outer darts of ``parent`` from ``O[pos]`` that ``attach_face`` accepts,
    except closing the sphere.  ``cancels`` is decided without building the
    child: the new face reads ``w[t:] + w[:t]`` from the glued dart
    ``O[pos + t]``, and the child has a cancelling pair exactly when, for
    some ``t < k``, that is the cancelling partner of what the inner face
    behind it reads from ``O[pos + t] ^ 1``."""
    O = parent.outer_orbit()
    B = len(O)
    partners = [cancelling_partner(_face_word_from(parent, q ^ 1)) for q in O]
    for pos in range(B):
        alive = forms
        # the forms w with w[t:] + w[:t] == partners[pos + t] for a t < k
        cancelling: set = set()
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
                    continue  # would close the sphere
                yield pos, k, w, w in cancelling


def enumerate_diagrams(x: TwoComplex, cfg: EnumerationConfig) -> Iterator[DiskDiagram]:
    """All reduced topological-disk diagrams over ``x``, by area then code.

    Level ``n + 1`` is grown from level ``n`` by attaching one 2-cell along
    a boundary arc: every relator rotation and orientation, every overlap
    length ``k >= 1``, including the pocket-closing gluings that pinch two
    boundary vertices together.  Each isomorphism class is emitted once.

    Admission is incremental and decided before the child is built.  The
    parent is a reduced disk.  A gluing with ``k >= 1`` that does not close
    the sphere always gives a disk again; it keeps every old face orbit and
    every old-old adjacency, and its new edges border only the new face and
    the outer face.  So the only pair that can cancel is the new face with
    an inner face behind a glued dart, which ``_gluings`` tests from the
    parent alone.  Cancelling gluings are skipped unbuilt, and neither
    ``is_topological_disk`` nor ``reduced_witness`` runs on a child (the
    tests check both invariants); only the one-cell seeds go through them.

    ``max_perimeter`` filters what is emitted and does not prune growth,
    since a child can have a shorter boundary than its parent.
    ``max_candidates`` caps the gluings tried, cancelling ones included.
    """
    if not x.faces:
        raise ValueError("complex has no 2-cells")
    forms = [w for (w, _i, _o) in relator_forms(x)]
    max_len = max(len(w) for w in forms)
    cap = cfg.max_perimeter
    candidates = 0

    def within_cap(level: List[DiskDiagram]) -> List[DiskDiagram]:
        return level if cap is None else [d for d in level if d.perimeter <= cap]

    # codes carry the area, so each level deduplicates on its own
    first: Dict[Tuple, DiskDiagram] = {}
    for w in forms:
        d = DiskDiagram.from_face_word(w, x.alphabet)
        if is_topological_disk(d) and reduced_witness(d) is None:
            first.setdefault(d.canonical_code(), d)
    level = [first[c] for c in sorted(first)]
    yield from within_cap(level)

    for _area in range(2, cfg.max_area + 1):
        nxt: Dict[Tuple, DiskDiagram] = {}
        for parent in level:
            for pos, k, w, cancels in _gluings(parent, forms, max_len):
                candidates += 1
                if cfg.max_candidates is not None and candidates > cfg.max_candidates:
                    raise ResourceCapError(
                        f"enumeration exceeded {cfg.max_candidates} candidate gluings"
                    )
                if not cancels:
                    child = attach_face(parent, pos, k, w)
                    nxt.setdefault(child.canonical_code(), child)
        level = [nxt[c] for c in sorted(nxt)]
        yield from within_cap(level)


def enumeration_summary(diagrams: Iterable[DiskDiagram]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for d in diagrams:
        counts[d.area] = counts.get(d.area, 0) + 1
    return dict(sorted(counts.items()))


# ----------------------------------------------------------------------
# Laurent-polynomial helpers (dict {(x, y): coeff} over Z[x^-1, x, y^-1, y])


def _lp_add(a: Dict, b: Dict, sign: int = 1) -> Dict:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + sign * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _lp_mul(a: Dict, b: Dict) -> Dict:
    out: Dict = {}
    for (ax, ay), av in a.items():
        for (bx, by), bv in b.items():
            k = (ax + bx, ay + by)
            nv = out.get(k, 0) + av * bv
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _lp_box(a: Dict) -> Tuple[int, int, int, int]:
    """The least and greatest x, then y, exponents of a nonzero ``a``."""
    xs, ys = zip(*a)
    return min(xs), max(xs), min(ys), max(ys)


def _lp_divide(num: Dict, den: Dict, den_box: Tuple[int, int, int, int]) -> Optional[Dict]:
    """The exact quotient ``num / den`` in the Laurent ring, or None when
    there is none; ``den_box`` is ``_lp_box(den)``.

    If ``num = q * den``, the Newton polytope of ``num`` is the sum of its
    factors' polytopes, so the exponents of ``q`` lie in the box that the
    x- and y-ranges of ``num`` and ``den`` set.  Lex-leading-term reduction
    finds the terms of ``q`` in strictly decreasing order, so a step that
    leaves the box, or a leading coefficient that does not divide, proves
    there is no quotient, and the loop ends within the box."""
    if not num:
        return {}
    nx0, nx1, ny0, ny1 = _lp_box(num)
    dx0, dx1, dy0, dy1 = den_box
    num = dict(num)
    lead_d = max(den)
    cd = den[lead_d]
    quo: Dict = {}
    while num:
        lead_n = max(num)
        cn = num[lead_n]
        sx, sy = lead_n[0] - lead_d[0], lead_n[1] - lead_d[1]
        if cn % cd or not (nx0 - dx0 <= sx <= nx1 - dx1 and ny0 - dy0 <= sy <= ny1 - dy1):
            return None
        c = quo[sx, sy] = cn // cd
        for (kx, ky), v in den.items():
            kk = (kx + sx, ky + sy)
            nv = num.get(kk, 0) - c * v
            if nv:
                num[kk] = nv
            else:
                del num[kk]
    return quo


def _lp_norm(a: Dict) -> int:
    return sum(abs(v) for v in a.values())


# ----------------------------------------------------------------------
# invariant-based area lower bound


class _InvariantBound:
    """Exact lower bound on filling area from abelianized invariants.

    Built from the complex and ``pi``, the rank-2 lattice projection of
    each generator under a model, or None without one (then every position
    is zero).  A word is read in one projected walk: the prefix point at
    each position, and the word's Fox vector, the flat dict ``(kx, ky, g)
    -> c`` of its position-weighted exponent sums over ``Z[Z^2]``.  Every
    row of the plain system is linear in that vector: the generator
    exponent sums and, with a projection, twice the signed area of the
    projected boundary path.  Any filling's signed face counts solve the
    plain system, so the minimal l1-norm over rational solutions bounds the
    area from below; with a projection, the graded system over ``Z[Z^2]``
    is tried first and, when it pins each relator's translates, gives the
    bound.  Its coefficient side depends only on the relators, so it is
    eliminated once, here, and each solve replays the recorded row
    operations on the word's vector alone, split per generator.  The
    relator forms' vectors are computed once per bound too, for the word
    moves.

    The one cache holds the final bound, keyed by the Fox vector up to sign
    and translation.  For a word whose projected path closes, rotating it
    multiplies the vector by a monomial ``z^c``, inverting it negates the
    vector, and free reduction leaves it unchanged.  Both systems give the
    same bound on ``+-z^c e`` as on ``e``: their solutions map to each
    other with the same norms, the graded solve's row operations are
    linear, and exact division commutes with both.  So a word's bound is
    its canonical form's bound, whichever rotation or reduction is asked,
    and a search can score a move before canonicalising it.
    """

    def __init__(self, x: TwoComplex, pi: Optional[Tuple[Tuple[int, int], ...]] = None):
        graded = pi is not None
        self.pi = pi if graded else ((0, 0),) * len(x.alphabet)
        es = [self._walk(w.letters)[1] for w in x.face_words()]
        self.n = len(es)
        # one row per generator of the graded system, one column per relator
        self.eq_matrix = [list(col) for col in zip(*map(self._split, es))] if graded else None
        cols = [self._rows(e) for e in es]
        self.matrix = [
            [Fraction(col[i]) for col in cols] for i in range(len(self.pi) + graded)
        ]
        self._x = x
        self._cache: Dict[Tuple, Optional[int]] = {}
        if graded:
            self._eliminate()

    @cached_property
    def forms(self) -> List[Tuple[Tuple[int, ...], List[Tuple]]]:
        """Each relator form with the items of its Fox vector, for
        ``_moves``: computed on first use, since a bound whose words are all
        refuted by the invariants or the model's word problem needs none."""
        return [(w, list(self._walk(w)[1].items())) for (w, _i, _o) in relator_forms(self._x)]

    def _walk(self, word: Sequence[int]) -> Tuple[List[Tuple[int, int]], Dict]:
        """The projected prefix point before each letter of the word, and
        its Fox vector: a letter g at prefix point v contributes +z^v to
        generator g, an inverse letter the matching -z^(v - pi(g))."""
        starts = []
        fox: Dict[Tuple[int, int, int], int] = {}
        vx = vy = 0
        for x in word:
            starts.append((vx, vy))
            g = abs(x) - 1
            px, py = self.pi[g]
            if x > 0:
                key = (vx, vy, g)
                vx += px
                vy += py
            else:
                vx -= px
                vy -= py
                key = (vx, vy, g)
            nv = fox.get(key, 0) + (1 if x > 0 else -1)
            if nv:
                fox[key] = nv
            else:
                del fox[key]
        return starts, fox

    def _split(self, fox: Dict) -> List[Dict]:
        """A Fox vector per generator, as the graded system's rows take it."""
        e: List[Dict] = [{} for _ in self.pi]
        for (kx, ky, g), c in fox.items():
            e[g][kx, ky] = c
        return e

    def _rows(self, fox: Dict) -> Optional[Tuple[int, ...]]:
        """The plain rows of a word from its Fox vector: each generator's
        exponent sum (the sum of its coefficients) and, with a projection,
        twice the signed area of the projected path (``c * (k x pi(g))``
        summed over the terms ``c z^k`` of generator ``g``).  None when the
        projected path, ending at the exponent sums times the projections,
        does not close."""
        sums = [0] * len(self.pi)
        ex = ey = twice = 0
        for (kx, ky, g), c in fox.items():
            px, py = self.pi[g]
            sums[g] += c
            ex += c * px
            ey += c * py
            twice += c * (kx * py - ky * px)
        if self.eq_matrix is None:
            return tuple(sums)
        if ex or ey:
            return None
        return (*sums, twice)

    def _eliminate(self) -> None:
        """Gaussian elimination with monomial pivots on the graded system's
        coefficient side, recorded for ``_solve_laurent_system``.

        ``_ops`` lists the right-hand-side operations in order: ``(g, f,
        None)`` multiplies row ``g`` by the unit ``f = +-z^t``, ``(g, f,
        h)`` subtracts ``f`` times row ``h`` from row ``g``.  ``_pivots``
        holds ``(col, g, terms)`` in pivot order: row ``g`` reads ``x_col +
        sum(c * x_c for c, _ in terms) = rhs``.  A pivot's column is cleared
        from the rows still active only, so a pivot row names no earlier
        pivot's column but may name a later one's, and the pivot columns
        are solved in reverse pivot order.  ``_left`` holds the other rows
        ``(g, terms, box)`` over the columns no pivot took, in elimination
        order, where ``box`` is the divisor's ``_lp_box`` on a row with one
        column and None otherwise.  Every operation is invertible, so the
        reduced system has exactly the solutions of the original one."""
        n = self.n
        active = [(g, [dict(c) for c in row]) for g, row in enumerate(self.eq_matrix)]
        ops: List[Tuple[int, Dict, Optional[int]]] = []
        pivots: List[Tuple[int, int, List[Dict]]] = []
        cols_left = set(range(n))
        changed = True
        while changed and cols_left:
            changed = False
            for idx, (g, coeffs) in enumerate(active):
                hit = None
                for col in sorted(cols_left):
                    c = coeffs[col]
                    if len(c) == 1:
                        ((t, v),) = c.items()
                        if v in (1, -1):
                            hit = (col, t, v)
                            break
                if hit is None:
                    continue
                col, t, v = hit
                unit = {(-t[0], -t[1]): v}
                coeffs = [_lp_mul(unit, cc) for cc in coeffs]
                ops.append((g, unit, None))
                active.pop(idx)
                for j, (gj, cj) in enumerate(active):
                    f = cj[col]
                    if f:
                        active[j] = (gj, [_lp_add(cc, _lp_mul(f, pc), -1)
                                          for cc, pc in zip(cj, coeffs)])
                        ops.append((gj, f, g))
                pivots.append((col, g, coeffs))
                cols_left.discard(col)
                changed = True
                break
        self._ops = ops
        self._pivots = [
            (col, g, [(c, cc) for c, cc in enumerate(coeffs) if c != col and cc])
            for col, g, coeffs in pivots
        ]
        self._left = []
        for g, coeffs in active:
            terms = [(c, coeffs[c]) for c in sorted(cols_left) if coeffs[c]]
            self._left.append((g, terms, _lp_box(terms[0][1]) if len(terms) == 1 else None))
        self._free = len(cols_left)

    def _solve_laurent_system(self, bs: List[Dict]) -> Tuple:
        """('ok', bound, solution) | ('infeasible',) | ('unknown',) for the
        Z[Z^2]-graded system with the Fox vector ``bs``, split per
        generator, on the right: the recorded row operations run on ``bs``
        alone, each column no pivot took is solved by exact division from
        the first row on it alone, and the pivot columns follow by
        back-substitution in reverse pivot order, each pivot row naming only
        later pivots' columns and those no pivot took.  A row without
        columns that is not zero, or a division with no quotient, proves the
        system infeasible, since every operation is invertible.  The
        solution holds on the pivot rows by construction and on the
        division rows by exact division;
        only the other rows are checked.  ``solution`` lists each relator's
        translate multiplicities."""
        rhs = list(bs)
        for g, f, h in self._ops:
            if h is None:
                rhs[g] = _lp_mul(f, rhs[g])
            else:
                rhs[g] = _lp_add(rhs[g], _lp_mul(f, rhs[h]), -1)
        values: Dict[int, Dict] = {}
        unused = []
        for g, terms, box in self._left:
            if not terms:
                if rhs[g]:
                    return ("infeasible",)
            elif box is not None and terms[0][0] not in values:
                col, den = terms[0]
                q = _lp_divide(rhs[g], den, box)
                if q is None:
                    return ("infeasible",)
                values[col] = q
            else:
                unused.append((g, terms))
        if len(values) < self._free:
            return ("unknown",)
        for col, g, terms in reversed(self._pivots):
            val = rhs[g]
            for c, cc in terms:
                val = _lp_add(val, _lp_mul(cc, values[c]), -1)
            values[col] = val
        for g, terms in unused:
            acc: Dict = {}
            for c, cc in terms:
                acc = _lp_add(acc, _lp_mul(cc, values[c]))
            if acc != rhs[g]:
                return ("infeasible",)
        solution = [values[i] for i in range(self.n)]
        return ("ok", sum(map(_lp_norm, solution)), solution)

    def bound(self, word: Sequence[int]) -> Optional[int]:
        """Exact lower bound: the graded system when it pins the relator
        placements, the plain invariant solve otherwise; None = infeasible."""
        return self.vector_bound(self._walk(word)[1])

    def vector_bound(self, fox: Dict[Tuple[int, int, int], int]) -> Optional[int]:
        """The bound of a word whose Fox vector is ``fox``, through the
        cache.  The key is ``fox`` translated so that its least term sits
        at the origin, and negated if that term's coefficient is negative.
        A miss computes the bound from the key itself, so a cached value
        does not depend on which word filled it."""
        items = sorted(fox.items())
        (mx, my, _g), lead = items[0] if items else ((0, 0, 0), 1)
        s = 1 if lead > 0 else -1
        key = tuple([(kx - mx, ky - my, g, s * v) for (kx, ky, g), v in items])
        if key not in self._cache:
            self._cache[key] = self._bound({(kx, ky, g): v for kx, ky, g, v in key})
        return self._cache[key]

    def _bound(self, fox: Dict[Tuple[int, int, int], int]) -> Optional[int]:
        # every relator's projected path closes, so the graded system has
        # no solution for a word whose path does not, and needs no test
        if self.eq_matrix is not None:
            res = self._solve_laurent_system(self._split(fox))
            if res[0] == "infeasible":
                return None
            if res[0] == "ok":
                return res[1]
        rows = self._rows(fox)
        if rows is None:
            return None
        val = self._solve(rows)
        return None if val is None else ceil(val)

    def _solve(self, b: Tuple[int, ...]) -> Optional[Fraction]:
        """The least l1-norm of a rational solution, over the supports whose
        columns are independent and reach ``b``: those whose augmented
        matrix has its pivots exactly on the support.  A larger support's
        columns are dependent, so it fails that test."""
        best: Optional[Fraction] = None
        for size in range(self.n + 1):
            for support in combinations(range(self.n), size):
                aug = [[row[j] for j in support] + [Fraction(bi)]
                       for row, bi in zip(self.matrix, b)]
                rows, pivots = _rref(aug)
                if pivots != list(range(size)):
                    continue
                norm = sum(abs(row[-1]) for row in rows)
                if best is None or norm < best:
                    best = norm
        return best


def _rref(matrix: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form: the nonzero rows and their pivot columns."""
    rows = [row[:] for row in matrix]
    cols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


# ----------------------------------------------------------------------
# area oracles

# A* expansions before ``relator_bfs`` gives up uncertified, and nodes the
# bound-perfect probe visits before handing over to A*
MAX_EXPANSIONS = 500_000
PROBE_NODE_BUDGET = 30_000


@dataclass(frozen=True)
class AreaResult:
    value: Optional[int]
    certified_exact: bool
    method: str
    expanded: int = 0
    note: str = ""

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise ValueError("area cannot be negative")


def _as_letters(w) -> Tuple[int, ...]:
    if isinstance(w, (Word, CyclicWord)):
        return tuple(w.letters)
    return tuple(w)


def area_oracle(
    w,
    x: TwoComplex,
    bound: int,
    method: str = "auto",
    model: Optional[FreeProductModel] = None,
) -> AreaResult:
    """Minimal area of a filling of ``w`` over ``x``, up to ``bound``.

    ``relator_bfs`` runs an A* search over cyclic words with relator
    insertions as moves, guided by the invariant lower bound; its result is
    certified unless the search hits ``MAX_EXPANSIONS``.  Each move is
    scored from the parent's Fox vector plus the inserted form's, shifted
    to the projected prefix at the insertion point, once per form and
    distinct prefix, and only the moves the search keeps are
    canonicalised.  That is exact: canonicalising a closed word rotates,
    inverts and freely reduces it, which changes its Fox vector only by
    sign and translation, and the bound is invariant under both.  A "no
    filling" is certified by the invariants, by the model's word problem
    when a model is given, or by exhausting every move sequence of length
    at most ``bound``.  ``diagram_search`` minimizes over enumerated disks glued
    at cut vertices: the area of a cyclic word is the least of its
    enumerated-disk area and ``best(u) + best(v)`` over its splits into two
    arcs ``u`` and ``v``.  It tries only the splits at positions ``i < j``
    whose prefix exponent vectors agree modulo the rational span of the
    relators' vectors.  That is exact: a fillable ``u`` is null-homotopic,
    so its exponent vector lies in the span, and each unordered split gives
    the same two arcs, with the same sum, from either end; its answer is
    always certified.  ``auto`` runs ``relator_bfs`` and, when that is
    uncertified and ``bound <= 6``, answers with ``diagram_search``.
    """
    if method not in ("auto", "relator_bfs", "diagram_search"):
        raise ValueError(f"unknown oracle method {method!r}")
    letters = canonical_cyclic(_as_letters(w))
    if letters == ():
        return AreaResult(0, True, method)
    if method == "relator_bfs":
        return _relator_bfs(letters, x, bound, model)
    if method == "diagram_search":
        return _diagram_search(letters, x, bound)
    if method == "auto":
        res = _relator_bfs(letters, x, bound, model)
        if res.certified_exact or bound > 6:
            return res  # enumerating past area 6 as a fallback is not worth it
        return _diagram_search(letters, x, bound)


def _moves(
    cur: Tuple[int, ...], hb: _InvariantBound
) -> Iterator[Tuple[Optional[int], int, Tuple[int, ...]]]:
    """Every insertion of a relator form into ``cur``, scored before it is
    canonicalised: yields ``(h, i, w)``, where ``h`` is the bound of
    ``cur[:i] + w + cur[i:]``.  A form's projected path closes, so the
    inserted word's Fox vector is ``cur``'s plus the form's, shifted to the
    projected prefix at ``i``; it depends on ``i`` only through that
    prefix, so each form is scored once per distinct prefix (with no
    projection, every prefix is the origin).  The bound's cache is keyed up
    to sign and translation, so ``h`` is also the bound of the canonical
    form."""
    starts, base = hb._walk(cur)
    for w, terms in hb.forms:
        scores: Dict[Tuple[int, int], Optional[int]] = {}
        for i, start in enumerate(starts):
            if start not in scores:
                sx, sy = start
                fox = base.copy()
                for (kx, ky, g), v in terms:
                    k = (kx + sx, ky + sy, g)
                    nv = fox.get(k, 0) + v
                    if nv:
                        fox[k] = nv
                    else:
                        del fox[k]
                scores[start] = hb.vector_bound(fox)
            yield scores[start], i, w


def _perfect_probe(
    letters: Tuple[int, ...],
    h0: int,
    hb: _InvariantBound,
) -> Optional[int]:
    """Depth-first hunt for a filling that meets the lower bound exactly.

    Only moves dropping the invariant bound by exactly one are followed, so
    the depth of every state is forced and a global visited set is sound.
    Moves are scored before they are canonicalised (see ``_moves``), and
    only the ones kept are.  Returns the node count on success, None when
    the budget runs out or no bound-perfect filling exists.
    """
    seen = {letters}
    nodes = 0

    def successors(cur: Tuple[int, ...], remaining: int) -> List[Tuple[int, ...]]:
        keep = {
            canonical_cyclic(cur[:i] + w + cur[i:])
            for h, i, w in _moves(cur, hb)
            if h == remaining - 1
        }
        return sorted(keep - seen, key=lambda w: (len(w), w))

    stack: List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]] = []
    stack.append((letters, successors(letters, h0)))
    while stack:
        nodes += 1
        if nodes > PROBE_NODE_BUDGET:
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


def _relator_bfs(
    letters: Tuple[int, ...],
    x: TwoComplex,
    bound: int,
    model: Optional[FreeProductModel],
) -> AreaResult:
    hb = _bound_for(x, model)
    h0 = hb.bound(letters)
    if h0 is None:
        return AreaResult(None, True, "relator_bfs", note="abelian obstruction: not null-homotopic")
    # the model maps every relator to the identity, so a filling would make
    # the word's image trivial
    if model is not None and not is_trivial(Word(letters, x.alphabet), model):
        return AreaResult(None, True, "relator_bfs", note="model word problem: not null-homotopic")
    if h0 > bound:
        return AreaResult(None, True, "relator_bfs", note=f"lower bound {h0} exceeds bound")
    probe = _perfect_probe(letters, h0, hb)
    if probe is not None:
        return AreaResult(h0, True, "relator_bfs", expanded=probe,
                          note="filling meets the invariant lower bound")
    dist: Dict[Tuple[int, ...], int] = {letters: 0}
    heap: List[Tuple[int, int, int, Tuple[int, ...]]] = [(h0, 0, len(letters), letters)]
    expanded = 0
    while heap:
        f, negg, _, cur = heapq.heappop(heap)
        g = -negg
        if dist.get(cur, -1) != g:
            continue
        if cur == ():
            return AreaResult(g, True, "relator_bfs", expanded=expanded)
        if g >= bound:
            continue
        expanded += 1
        if expanded > MAX_EXPANSIONS:
            return AreaResult(None, False, "relator_bfs", expanded=expanded,
                              note="expansion cap hit")
        g2 = g + 1
        for h, i, w in _moves(cur, hb):
            if h is None or g2 + h > bound:
                continue
            nxt = canonical_cyclic(cur[:i] + w + cur[i:])
            if dist.get(nxt, bound + 1) <= g2:
                continue
            dist[nxt] = g2
            heapq.heappush(heap, (g2 + h, -g2, len(nxt), nxt))
    return AreaResult(None, True, "relator_bfs", expanded=expanded, note="no filling within bound")


_BOUND_CACHE: Dict[Tuple, _InvariantBound] = {}
_TABLE_CACHE: Dict[Tuple, Dict[Tuple[int, ...], int]] = {}


def _bound_for(x: TwoComplex, model: Optional[FreeProductModel]) -> _InvariantBound:
    # keyed by what the bound reads: the complex and a rank-2 model's projection
    pi = None
    if model is not None and model.abelian_rank == 2:
        pi = tuple(map(model.pi, x.alphabet))
    hb = _BOUND_CACHE.get((x, pi))
    if hb is None:
        hb = _BOUND_CACHE[x, pi] = _InvariantBound(x, pi)
    return hb


def disk_boundary_table(x: TwoComplex, bound: int) -> Dict[Tuple[int, ...], int]:
    """Canonical boundary word -> minimal enumerated-disk area (cached)."""
    key = (x, bound)
    if key not in _TABLE_CACHE:
        table: Dict[Tuple[int, ...], int] = {}
        for d in enumerate_diagrams(x, EnumerationConfig(max_area=bound)):
            wkey = canonical_cyclic(d.boundary_word_ints())
            if wkey not in table or d.area < table[wkey]:
                table[wkey] = d.area
        _TABLE_CACHE[key] = table
    return _TABLE_CACHE[key]


def _letter_classes(x: TwoComplex) -> Dict[int, Tuple[int, ...]]:
    """Each letter's exponent vector modulo the rational span of the
    relators' exponent vectors.  A class is the tuple of values under
    integer functionals that span the relator matrix's null space, so
    they vanish together exactly on that span."""
    n = len(x.alphabet)
    matrix = [
        [Fraction(sum((v == g) - (v == -g) for v in r.letters)) for g in range(1, n + 1)]
        for r in x.face_words()
    ]
    rows, pivots = _rref(matrix)
    functionals = []
    for free in (c for c in range(n) if c not in pivots):
        f = [Fraction(0)] * n
        f[free] = Fraction(1)
        for row, p in zip(rows, pivots):
            f[p] = -row[free]
        scale = lcm(*(v.denominator for v in f))
        functionals.append([int(v * scale) for v in f])
    return {
        s * g: tuple(s * f[g - 1] for f in functionals)
        for g in range(1, n + 1)
        for s in (1, -1)
    }


def _prefix_classes(
    letters: Sequence[int], letter_class: Dict[int, Tuple[int, ...]]
) -> List[Tuple[int, ...]]:
    """The class of every prefix ``letters[:i]``, for ``i`` from 0 to
    ``len(letters)``; the last entry is the class of the whole word."""
    cur = (0,) * len(next(iter(letter_class.values())))
    out = [cur]
    for v in letters:
        cur = tuple(a + b for a, b in zip(cur, letter_class[v]))
        out.append(cur)
    return out


def _diagram_search(letters: Tuple[int, ...], x: TwoComplex, bound: int) -> AreaResult:
    # a nonempty cyclically reduced word has no filling of area below 1
    value = None
    if bound >= 1:
        value = _best_filling(letters, {}, disk_boundary_table(x, bound), _letter_classes(x), bound)
    note = "" if value is not None else "no filling within bound"
    return AreaResult(value, True, "diagram_search", note=note)


def _best_filling(
    wc: Tuple[int, ...],
    memo: Dict[Tuple[int, ...], Optional[int]],
    table: Dict[Tuple[int, ...], int],
    letter_class: Dict[int, Tuple[int, ...]],
    bound: int,
) -> Optional[int]:
    """The least area, at most ``bound``, of the canonical word ``wc``
    over its enumerated disks and its splits into two filled arcs."""
    if wc == ():
        return 0
    if wc in memo:
        return memo[wc]
    value = table.get(wc)
    # a fillable part wc[i:j] has class zero, i.e. the prefix classes at i
    # and j agree; both parts are shorter than wc
    cuts: Dict[Tuple[int, ...], List[int]] = {}
    for i, c in enumerate(_prefix_classes(wc, letter_class)[:-1]):
        cuts.setdefault(c, []).append(i)
    for same in cuts.values():
        for i, j in combinations(same, 2):
            a = _best_filling(canonical_cyclic(wc[i:j]), memo, table, letter_class, bound)
            if a is None:
                continue
            b = _best_filling(canonical_cyclic(wc[j:] + wc[:i]), memo, table, letter_class, bound)
            if b is None:
                continue
            if value is None or a + b < value:
                value = a + b
    if value is not None and value > bound:
        value = None
    memo[wc] = value
    return value


def is_minimal(
    d: DiskDiagram, x: TwoComplex, model: Optional[FreeProductModel] = None
) -> Optional[bool]:
    """Whether the diagram's area equals the certified minimal area of its
    boundary word; None when ``area_oracle`` (auto, at the diagram's own
    area, since no larger area matters) cannot certify it.  The invariant
    bound is asked first, about the boundary word as it stands: the bound
    does not see rotation, inversion or free reduction, so the word need not
    be canonicalised, and a diagram that meets the bound is minimal."""
    letters = d.boundary_word_ints()
    if _bound_for(x, model).bound(letters) == d.area:
        return True
    res = area_oracle(letters, x, bound=d.area, model=model)
    if not res.certified_exact:
        return None
    if res.value is None:
        # no filling within area(d) would contradict d itself
        raise AssertionError("oracle found no filling although the diagram is one")
    return res.value == d.area


@dataclass(frozen=True)
class DehnTableRow:
    n: int
    word_length: int
    area: AreaResult


def dehn_table(
    x: TwoComplex,
    family: Callable[[int], CyclicWord],
    n_range: Iterable[int],
    bound: int,
    model: Optional[FreeProductModel] = None,
) -> List[DehnTableRow]:
    """Certified-area table for a word family (uncertified rows flagged)."""
    rows = []
    for n in n_range:
        wn = family(n)
        res = area_oracle(wn, x, bound=bound, model=model)
        rows.append(DehnTableRow(n, len(wn), res))
    return rows
