"""Exhaustive diagram generation and two independent minimal-area oracles.

The enumerator grows reduced topological-disk diagrams one 2-cell at a
time, gluing each relator form along every matching boundary arc that
creates no cancelling pair and deduplicating up to isomorphism, so every
reduced disk of area at most the bound is produced exactly once.

``area_oracle`` answers minimal-area queries two ways: ``relator_bfs``
searches the word moves (insert a relator rotation anywhere, freely and
cyclically reducing) with an exact-arithmetic lower-bound heuristic, and
``diagram_search`` takes minima over the enumerated disks, assembling
non-disk fillings by splitting the boundary word at cut vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .presentation import (
    CyclicWord,
    TwoComplex,
    Word,
    invert_ints,
    least_rotation,
    reduce_ints,
)
from .group_models import FreeProductModel
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


def _seed_diagrams(x: TwoComplex) -> List[DiskDiagram]:
    alphabet = x.alphabet
    return [DiskDiagram.from_face_word(w, alphabet) for (w, _i, _o) in relator_forms(x)]


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
    for d in _seed_diagrams(x):
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


def _lp_scale_mono(a: Dict, coeff: int, shift: Tuple[int, int]) -> Dict:
    sx, sy = shift
    return {(k[0] + sx, k[1] + sy): coeff * v for k, v in a.items()}


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


def _lp_divide(num: Dict, den: Dict, max_steps: int = 4096) -> Optional[Dict]:
    """Exact division in the Laurent ring; None when it does not terminate
    quickly or is not exact (lex-leading-term reduction)."""
    if not den:
        return None
    num = dict(num)
    lead_d = max(den)
    cd = den[lead_d]
    quo: Dict = {}
    steps = 0
    while num:
        steps += 1
        if steps > max_steps:
            return None
        lead_n = max(num)
        cn = num[lead_n]
        if cn % cd:
            return None
        c = cn // cd
        shift = (lead_n[0] - lead_d[0], lead_n[1] - lead_d[1])
        quo[shift] = quo.get(shift, 0) + c
        for k, v in den.items():
            kk = (k[0] + shift[0], k[1] + shift[1])
            nv = num.get(kk, 0) - c * v
            if nv:
                num[kk] = nv
            else:
                num.pop(kk, None)
    return quo


def _lp_norm(a: Dict) -> int:
    return sum(abs(v) for v in a.values())


# ----------------------------------------------------------------------
# invariant-based area lower bound


class _InvariantBound:
    """Exact lower bound on filling area from abelianized invariants.

    Rows are generator exponent sums plus, when a rank-2 lattice model is
    available, twice the signed area of the projected boundary path.  Any
    filling's signed face counts solve the linear system, so the minimal
    l1-norm over rational solutions bounds the area from below.
    """

    def __init__(self, x: TwoComplex, model: Optional[FreeProductModel] = None):
        self.alphabet = x.alphabet
        self.model = model if model is not None and model.abelian_rank == 2 else None
        relators = [w.letters for w in x.face_words()]
        self.n = len(relators)
        self.rows: List[Callable[[Sequence[int]], int]] = []
        for g in range(1, len(self.alphabet) + 1):
            self.rows.append(self._exponent_row(g))
        self.eq_matrix: Optional[List[List[Dict]]] = None
        if self.model is not None:
            self.pi_by_letter = {}
            for i, name in enumerate(self.alphabet):
                self.pi_by_letter[i + 1] = self.model.pi(name)
            self.rows.append(self._area_row)
            # position-weighted exponent sums over Z[Z^2] (Fox derivative,
            # abelianized over the lattice quotient): one row per generator
            self.eq_matrix = [
                [self._e_vector(r)[g] for r in relators]
                for g in range(len(self.alphabet))
            ]
            self._eq_cache: Dict[Tuple, Tuple] = {}
        self.matrix = [[Fraction(row(r)) for r in relators] for row in self.rows]
        self._cache: Dict[Tuple[int, ...], Optional[Fraction]] = {}

    @staticmethod
    def _exponent_row(g: int):
        def row(word: Sequence[int]) -> int:
            return sum(1 if v == g else -1 if v == -g else 0 for v in word)

        return row

    def _pi_path(self, word: Sequence[int]):
        xx = yy = 0
        pts = [(0, 0)]
        for v in word:
            px, py = self.pi_by_letter[abs(v)]
            if v > 0:
                xx += px
                yy += py
            else:
                xx -= px
                yy -= py
            pts.append((xx, yy))
        return pts

    def _area_row(self, word: Sequence[int]) -> int:
        pts = self._pi_path(word)
        if pts[-1] != (0, 0):
            raise ValueError("signed area needs a closed projected path")
        twice = 0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            twice += x0 * y1 - x1 * y0
        return twice

    def feasible_vector(self, word: Sequence[int]) -> Optional[Tuple[int, ...]]:
        if self.model is not None and self._pi_path(word)[-1] != (0, 0):
            return None
        return tuple(int(row(word)) for row in self.rows)

    def _e_vector(self, word: Sequence[int]) -> List[Dict]:
        """Per generator, the position-weighted exponent sum of the word:
        a letter g at projected prefix v contributes +z^v, an inverse
        letter the matching -z^(v - pi(g))."""
        out: List[Dict] = [dict() for _ in self.alphabet]
        vx = vy = 0
        for x in word:
            g = abs(x) - 1
            px, py = self.pi_by_letter[abs(x)]
            if x > 0:
                key = (vx, vy)
                vx += px
                vy += py
            else:
                vx -= px
                vy -= py
                key = (vx, vy)
            coeffs = out[g]
            nv = coeffs.get(key, 0) + (1 if x > 0 else -1)
            if nv:
                coeffs[key] = nv
            else:
                coeffs.pop(key, None)
        return out

    def _solve_equivariant(self, word: Sequence[int]) -> Tuple:
        """('ok', bound) | ('infeasible',) | ('unknown',) solving the
        Z[Z^2]-graded system: each relator's translate multiplicities are
        pinned by Gaussian elimination with monomial pivots."""
        bs = self._e_vector(word)
        key = tuple(tuple(sorted(b.items())) for b in bs)
        if key in self._eq_cache:
            return self._eq_cache[key]
        result = self._solve_laurent_system(bs)
        self._eq_cache[key] = result
        return result

    def _solve_laurent_system(self, bs: List[Dict]) -> Tuple:
        n = self.n
        active: List[Tuple[List[Dict], Dict]] = [
            ([dict(self.eq_matrix[g][i]) for i in range(n)], dict(bs[g]))
            for g in range(len(self.alphabet))
        ]
        pivots: List[Tuple[int, List[Dict], Dict]] = []
        cols_left = set(range(n))
        changed = True
        while changed and cols_left:
            changed = False
            for idx, (coeffs, rhs) in enumerate(active):
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
                inv = (-t[0], -t[1])
                coeffs = [_lp_scale_mono(cc, v, inv) for cc in coeffs]
                rhs = _lp_scale_mono(rhs, v, inv)
                active.pop(idx)
                for j, (cj, rj) in enumerate(active):
                    f = cj[col]
                    if f:
                        cj = [_lp_add(cc, _lp_mul(f, pc), -1) for cc, pc in zip(cj, coeffs)]
                        rj = _lp_add(rj, _lp_mul(f, rhs), -1)
                        active[j] = (cj, rj)
                for j, (pcol, pc2, pr2) in enumerate(pivots):
                    f = pc2[col]
                    if f:
                        pc2 = [_lp_add(cc, _lp_mul(f, c2), -1) for cc, c2 in zip(pc2, coeffs)]
                        pr2 = _lp_add(pr2, _lp_mul(f, rhs), -1)
                        pivots[j] = (pcol, pc2, pr2)
                pivots.append((col, coeffs, rhs))
                cols_left.discard(col)
                changed = True
                break
        solved: Dict[int, Dict] = {}
        for coeffs, rhs in active:
            nonzero = [col for col in cols_left if coeffs[col]]
            if not nonzero:
                if rhs:
                    return ("infeasible",)
                continue
            if len(nonzero) > 1 or nonzero[0] in solved:
                continue
            q = _lp_divide(rhs, coeffs[nonzero[0]])
            if q is not None:
                solved[nonzero[0]] = q
        if set(cols_left) - set(solved):
            return ("unknown",)
        values: Dict[int, Dict] = dict(solved)
        for col, coeffs, rhs in reversed(pivots):
            val = dict(rhs)
            for c2 in range(n):
                if c2 != col and coeffs[c2]:
                    val = _lp_add(val, _lp_mul(coeffs[c2], values[c2]), -1)
            values[col] = val
        # verify against every original equation (unique-solution check)
        for g in range(len(self.alphabet)):
            acc: Dict = {}
            for i in range(n):
                acc = _lp_add(acc, _lp_mul(self.eq_matrix[g][i], values[i]))
            if acc != {k: v for k, v in bs[g].items() if v}:
                return ("infeasible",)
        return ("ok", sum(_lp_norm(values[i]) for i in range(n)))

    def bound(self, word: Sequence[int]) -> Optional[int]:
        """Exact lower bound: the graded system when it pins the relator
        placements, the plain invariant solve otherwise; None = infeasible."""
        b = self.feasible_vector(word)
        if b is None:
            return None
        if self.eq_matrix is not None:
            res = self._solve_equivariant(word)
            if res[0] == "infeasible":
                return None
            if res[0] == "ok":
                return res[1]
        if b in self._cache:
            val = self._cache[b]
        else:
            val = self._solve(b)
            self._cache[b] = val
        return None if val is None else int(-(-val.numerator // val.denominator)) if val.denominator != 1 else int(val)

    def _solve(self, b: Tuple[int, ...]) -> Optional[Fraction]:
        m, n = len(self.matrix), self.n
        rank = _matrix_rank(self.matrix)
        best: Optional[Fraction] = None
        feasible = False
        for size in range(0, min(rank, n) + 1):
            for support in combinations(range(n), size):
                sol = _solve_support(self.matrix, b, support, n)
                if sol is None:
                    continue
                feasible = True
                norm = sum(abs(v) for v in sol)
                if best is None or norm < best:
                    best = norm
        return best if feasible else None


def _matrix_rank(matrix: List[List[Fraction]]) -> int:
    rows = [row[:] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
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
        r += 1
        rank += 1
    return rank


def _solve_support(
    matrix: List[List[Fraction]], b: Sequence[int], support: Tuple[int, ...], n: int
) -> Optional[List[Fraction]]:
    """Solve A x = b with x zero off the support; None if inconsistent or
    underdetermined on the support."""
    cols = list(support)
    rows = [[matrix[i][j] for j in cols] + [Fraction(b[i])] for i in range(len(matrix))]
    r = 0
    pivots = []
    for c in range(len(cols)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            return None  # underdetermined support; a smaller support covers it
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None  # inconsistent
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[cols[c]] = rows[i][-1]
    return sol


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
    capped: bool = False
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
    insertions as moves; a result is certified when the search space was
    exhausted under the caps, or when the found value meets the invariant
    lower bound.  ``diagram_search`` minimizes over enumerated disks glued
    at cut vertices.  ``auto`` tries the word search first and falls back.
    """
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
        alt = _diagram_search(letters, x, bound)
        if res.value is not None and alt.value is not None and res.value != alt.value:
            raise AssertionError(
                f"oracle disagreement for {letters}: bfs={res.value} diagrams={alt.value}"
            )
        return alt if alt.certified_exact else res
    raise ValueError(f"unknown oracle method {method!r}")


def _moves(cur: Tuple[int, ...], forms: List[Tuple[int, ...]]) -> Iterator[Tuple[int, ...]]:
    """Canonical forms of ``cur`` with a relator form inserted at each position."""
    m = len(cur)
    for formw in forms:
        for i in range(m):
            yield canonical_cyclic(cur[:i] + formw + cur[i:])


def _perfect_probe(
    letters: Tuple[int, ...],
    h0: int,
    heuristic,
    forms: List[Tuple[int, ...]],
    length_cap: int,
) -> Optional[int]:
    """Depth-first hunt for a filling that meets the lower bound exactly.

    Only moves dropping the heuristic by exactly one are followed, so the
    depth of every state is forced and a global visited set is sound.
    Returns the node count on success, None when the budget runs out or no
    heuristic-perfect filling exists.
    """
    seen = {letters}
    nodes = 0

    def successors(cur: Tuple[int, ...], remaining: int) -> List[Tuple[int, ...]]:
        out = {nxt for nxt in _moves(cur, forms) if len(nxt) <= length_cap and nxt not in seen}
        keep = []
        for nxt in out:
            h = heuristic(nxt)
            if h is not None and h == remaining - 1:
                keep.append(nxt)
        keep.sort(key=lambda w: (len(w), w))
        return keep

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
    forms = [w for (w, _i, _o) in relator_forms(x)]
    max_form = max(len(f) for f in forms)
    length_cap = len(letters) + max_form * bound
    hb = _bound_for(x, model)

    def heuristic(word: Tuple[int, ...]) -> Optional[int]:
        # invariant bound joined with the length bound: one insertion can
        # shorten a word by at most the longest relator length
        hv = hb.bound(word)
        if hv is None:
            return None
        return max(hv, -(-len(word) // max_form))

    h0 = heuristic(letters)
    if h0 is None:
        return AreaResult(None, True, "relator_bfs", note="abelian obstruction: not null-homotopic")
    if h0 > bound:
        return AreaResult(None, True, "relator_bfs", note=f"lower bound {h0} exceeds bound")
    probe = _perfect_probe(letters, h0, heuristic, forms, length_cap)
    if probe is not None:
        return AreaResult(h0, True, "relator_bfs", expanded=probe,
                          note="filling meets the invariant lower bound")
    dist: Dict[Tuple[int, ...], int] = {letters: 0}
    heap: List[Tuple[int, int, int, Tuple[int, ...]]] = [(h0, 0, len(letters), letters)]
    expanded = 0
    capped = False
    while heap:
        f, negg, _, cur = heapq.heappop(heap)
        g = -negg
        if dist.get(cur, -1) != g:
            continue
        if cur == ():
            certified = (not capped and expanded <= MAX_EXPANSIONS) or g == h0
            return AreaResult(g, certified, "relator_bfs", expanded=expanded)
        if g >= bound:
            continue
        expanded += 1
        if expanded > MAX_EXPANSIONS:
            return AreaResult(None, False, "relator_bfs", expanded=expanded, capped=True,
                              note="expansion cap hit")
        for nxt in set(_moves(cur, forms)):
            if len(nxt) > length_cap:
                capped = True
                continue
            g2 = g + 1
            if dist.get(nxt, bound + 1) <= g2:
                continue
            h = heuristic(nxt)
            if h is None or g2 + h > bound:
                continue
            dist[nxt] = g2
            heapq.heappush(heap, (g2 + h, -g2, len(nxt), nxt))
    return AreaResult(None, not capped, "relator_bfs", expanded=expanded, capped=capped,
                      note="no filling within bound" if not capped else "length cap hit")


_BOUND_CACHE: Dict[Tuple, _InvariantBound] = {}
_TABLE_CACHE: Dict[Tuple, Dict[Tuple[int, ...], int]] = {}


def _bound_for(x: TwoComplex, model: Optional[FreeProductModel]) -> _InvariantBound:
    # keyed by what the bound reads: the complex and a rank-2 model's projection
    pi = None
    if model is not None and model.abelian_rank == 2:
        pi = tuple(map(model.pi, x.alphabet))
    hb = _BOUND_CACHE.get((x, pi))
    if hb is None:
        hb = _BOUND_CACHE[x, pi] = _InvariantBound(x, model)
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


def _diagram_search(letters: Tuple[int, ...], x: TwoComplex, bound: int) -> AreaResult:
    table = disk_boundary_table(x, bound)
    memo: Dict[Tuple[int, ...], Optional[int]] = {}

    def best(wc: Tuple[int, ...]) -> Optional[int]:
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
                if u == wc or v == wc:
                    continue
                a = best(u)
                if a is None:
                    continue
                bpart = best(v)
                if bpart is None:
                    continue
                if value is None or a + bpart < value:
                    value = a + bpart
        if value is not None and value > bound:
            value = None
        memo[wc] = value
        return value

    value = best(letters)
    note = "" if value is not None else "no filling within bound"
    return AreaResult(value, True, "diagram_search", note=note)


def is_minimal(
    d: DiskDiagram,
    x: TwoComplex,
    bound: Optional[int] = None,
    model: Optional[FreeProductModel] = None,
    method: str = "auto",
) -> Optional[bool]:
    """Whether the diagram's area equals the certified minimal area of its
    boundary word; None when the oracle cannot certify within the bound
    (default: the diagram's own area, which always suffices)."""
    letters = d.boundary_word_ints()
    canon = canonical_cyclic(letters)
    hb = _bound_for(x, model)
    h0 = hb.bound(canon) if canon else 0
    if h0 is not None and h0 == d.area:
        return True  # the diagram itself meets the invariant lower bound
    if bound is None or bound > d.area:
        bound = d.area  # anything beyond the achieved area is irrelevant
    res = area_oracle(canon, x, bound=bound, method=method, model=model)
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
