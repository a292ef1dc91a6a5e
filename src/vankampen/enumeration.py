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
from array import array
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, islice
from math import ceil, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .presentation import (
    CyclicWord,
    TwoComplex,
    Word,
    cyclic_core,
    invert_ints,
    min_rotation_starts,
    reduce_ints,
)
from .group_models import (
    POINT_HALF,
    POINT_SHIFT,
    FreeProductModel,
    is_trivial,
    pack_point,
    unpack_point,
)
from .diagram import (
    DiskDiagram,
    _face_orbit,
    _face_word_from,
    _forward_code,
    _glue,
    _mirror_code,
    # not called here; kept as the name that perfbench's tracer patches
    attach_face,
    cancelling_partner,
    is_topological_disk,
    reduced_witness,
    relator_form_table,
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
        for name in ("max_perimeter", "max_candidates"):
            cap = getattr(self, name)
            if cap is not None and cap < 0:
                raise ValueError(f"{name} must not be negative")


def canonical_cyclic(letters: Sequence[int]) -> Tuple[int, ...]:
    """Canonical form of a boundary word: free+cyclic reduction, then the
    least rotation over the word and its inverse (mirror diagrams fill the
    inverse word)."""
    w = cyclic_core(letters)
    if not w:
        return ()
    inv = invert_ints(w)
    i = min_rotation_starts(w)[0]
    j = min_rotation_starts(inv)[0]
    return min(w[i:] + w[:i], inv[j:] + inv[:j])


def _forms_by_first(forms: Iterable[Tuple[int, ...]]) -> Dict[int, List[Tuple[int, ...]]]:
    """The relator forms by their first letter, each list in the order of
    ``forms``: ``_gluings`` starts every boundary position from it."""
    index: Dict[int, List[Tuple[int, ...]]] = {}
    for w in forms:
        index.setdefault(w[0], []).append(w)
    return index


def _gluings(
    parent: DiskDiagram, by_first: Dict[int, List[Tuple[int, ...]]], max_len: int
) -> Iterator[Tuple[int, int, Tuple[int, ...], bool]]:
    """Every gluing ``(pos, k, w, cancels)`` of a form ``w`` along ``k >= 1``
    outer darts of ``parent`` from ``O[pos]`` that ``attach_face`` accepts,
    except closing the sphere, where ``by_first`` is ``_forms_by_first`` of
    the forms and ``max_len`` their greatest length.  ``cancels`` is decided
    without building the child: the new face reads ``w[t:] + w[:t]`` from
    the glued dart ``O[pos + t]``, and the child has a cancelling pair
    exactly when, for some ``t < k``, that is the cancelling partner of what
    the inner face behind it reads from ``O[pos + t] ^ 1``."""
    O = parent.outer_orbit()
    B = len(O)
    labels = parent.labels
    partners = [cancelling_partner(_face_word_from(parent, q ^ 1)) for q in O]
    for pos in range(B):
        # the forms that match the arc of length k from O[pos]
        alive = by_first.get(labels[O[pos]], ())
        # the forms w with w[t:] + w[:t] == partners[pos + t] for a t < k
        cancelling: set = set()
        for k in range(1, min(B, max_len) + 1):
            p = (pos + k - 1) % B
            if k > 1:
                label = labels[O[p]]
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


def _built(
    entries: List[Tuple[bytes, List[int], List[int], int]], alphabet: Tuple[str, ...]
) -> Iterator[DiskDiagram]:
    """The diagrams of ``(code, sigma, labels, outer)`` entries sorted by
    descending code, built in ascending code order, each seeded with its
    code.  Each raw entry is dropped as its diagram is built.  ``_glue``
    made each entry, so the constructor's checks would pass, and only its
    setup runs."""
    while entries:
        code, sigma, labels, outer = entries.pop()
        d = DiskDiagram.__new__(DiskDiagram)
        d._setup(tuple(sigma), tuple(labels), alphabet, outer)
        d._canon = code
        yield d


def _levels(
    x: TwoComplex, max_candidates: Optional[int], last: Optional[int] = None
) -> Iterator[Iterable[DiskDiagram]]:
    """The reduced topological-disk diagrams over ``x``, one area at a time
    from area 1, each level in canonical-code order.  The stream ends at
    the first empty level, or after area ``last`` when that is given; over
    a complex with no 2-cells it is empty.

    Level ``n + 1`` is grown from level ``n`` by attaching one 2-cell along
    a boundary arc: every relator rotation and orientation, every overlap
    length ``k >= 1``, including the pocket-closing gluings that pinch two
    boundary vertices together.  Each isomorphism class is emitted once.
    Each level is computed only when it is asked for, so a caller that
    stops after area ``n`` pays for no more, and one that keeps the
    stream can resume it.

    Admission is incremental and decided before the child is built.  The
    parent is a reduced disk.  A gluing with ``k >= 1`` that does not close
    the sphere always gives a disk again; it keeps every old face orbit and
    every old-old adjacency, and its new edges border only the new face and
    the outer face.  So the only pair that can cancel is the new face with
    an inner face behind a glued dart, which ``_gluings`` tests from the
    parent alone.  Cancelling gluings are skipped unbuilt, and neither
    ``is_topological_disk`` nor ``reduced_witness`` runs on a child (the
    tests check both invariants); only the one-cell seeds go through them.

    Duplicates are found before any child is built, from the glued
    rotation system and its outer face orbit.  Each level keys both halves
    of ``_map_code`` for every diagram it admits: the forward code ``f``
    and the mirror code ``g``.  A child is isomorphic to an admitted
    diagram ``D`` exactly when its ``f`` is ``D``'s ``f``, and to ``D``'s
    mirror exactly when its ``f`` is ``D``'s ``g``.  So a child computes
    ``f`` and is a duplicate when ``f`` is a key; only a new child computes
    ``g`` (and the inverse rotation).  The keys cost one more code per
    diagram of the level being built, and they are dropped before it is
    yielded.

    A new child is kept as its raw entry, its canonical code ``min(f, g)``
    with the glued ``(sigma, labels, outer)``, and the level's entries are
    sorted by code.  A level that the next one grows from is built into a
    list of ``DiskDiagram``s.  The level of area ``last`` grows nothing, so
    it is yielded as an iterator that builds each diagram when it is asked
    for and drops that raw entry: a consumer that keeps none of them holds
    only the entries not yet built.

    A level's diagrams are built by ``DiskDiagram._setup`` alone, without
    the constructor's checks.  ``_glue`` rewires a valid parent's rotation
    around a chain of new edges, so its ``sigma`` is always a permutation
    of int darts, opposite darts carry inverse labels from the relator
    forms, and the outer dart is one of the child's darts; the tests build
    every child again through the constructor.  The one-cell seeds are
    built by the constructor.  The forms are indexed by their first letter
    once (``_forms_by_first``), so a boundary position tries only the forms
    that start with its label.

    ``max_candidates``, when not None, caps the gluings tried over all
    levels, cancelling ones included.
    """
    forms = list(relator_form_table(x))
    by_first = _forms_by_first(forms)
    n_gens = len(x.alphabet)
    # codes carry the area, so each level deduplicates on its own
    first: Dict[bytes, DiskDiagram] = {}
    for w in forms:
        d = DiskDiagram.from_face_word(w, x.alphabet)
        if is_topological_disk(d) and reduced_witness(d) is None:
            first.setdefault(d._code(), d)
    if not first:
        return
    max_len = max(len(w) for w in forms)
    candidates = 0
    level: Iterable[DiskDiagram] = [first[c] for c in sorted(first)]
    area = 1
    while True:
        yield level
        if area == last:
            return
        keys: set = set()
        entries = []
        for parent in level:
            for pos, k, w, cancels in _gluings(parent, by_first, max_len):
                candidates += 1
                if max_candidates is not None and candidates > max_candidates:
                    raise ResourceCapError(
                        f"enumeration exceeded {max_candidates} candidate gluings"
                    )
                if cancels:
                    continue
                sigma, labels, outer = _glue(parent, pos, k, w)
                orbit = _face_orbit(sigma, outer)
                f = _forward_code(sigma, labels, orbit, n_gens)
                if f in keys:
                    continue
                g = _mirror_code(sigma, labels, orbit, n_gens)
                keys.add(f)
                keys.add(g)
                entries.append((min(f, g), sigma, labels, outer))
        # a resumable stream waits at the yield; the keys are not needed there
        del keys
        if not entries:
            return
        area += 1
        # codes are distinct, so the sort never compares the maps
        entries.sort(reverse=True)
        level = _built(entries, x.alphabet)
        if area != last:
            level = list(level)


def enumerate_diagrams(x: TwoComplex, cfg: EnumerationConfig) -> Iterator[DiskDiagram]:
    """All reduced topological-disk diagrams over ``x`` of area at most
    ``cfg.max_area``, by area then code: the levels of ``_levels`` up to
    that area, the last of them built as it is consumed.

    ``max_perimeter`` filters what is emitted and does not prune growth,
    since a child can have a shorter boundary than its parent.
    ``max_candidates`` caps the gluings tried, cancelling ones included.
    """
    cap = cfg.max_perimeter
    for level in _levels(x, cfg.max_candidates, cfg.max_area):
        yield from (level if cap is None else (d for d in level if d.perimeter <= cap))


def enumeration_summary(diagrams: Iterable[DiskDiagram]) -> Dict[int, int]:
    return dict(sorted(Counter(d.area for d in diagrams).items()))


# ----------------------------------------------------------------------
# Laurent-polynomial helpers: dict {point: coeff} over Z[x^-1, x, y^-1, y],
# each exponent (x, y) a packed point (``pack_point``), so multiplying by a
# monomial adds its point


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
    for ak, av in a.items():
        for bk, bv in b.items():
            k = ak + bk
            nv = out.get(k, 0) + av * bv
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def _lp_box(a: Dict) -> Tuple[int, int, int, int]:
    """The least and greatest x, then y, exponents of a nonzero ``a``: the
    least and greatest keys have the least and greatest x."""
    ys = [k - ((k + POINT_HALF) >> POINT_SHIFT << POINT_SHIFT) for k in a]
    return unpack_point(min(a))[0], unpack_point(max(a))[0], min(ys), max(ys)


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
        s = lead_n - lead_d
        sx, sy = unpack_point(s)
        if cn % cd or not (nx0 - dx0 <= sx <= nx1 - dx1 and ny0 - dy0 <= sy <= ny1 - dy1):
            return None
        c = quo[s] = cn // cd
        for k, v in den.items():
            k += s
            nv = num.get(k, 0) - c * v
            if nv:
                num[k] = nv
            else:
                del num[k]
    return quo


def _lp_norm(a: Dict) -> int:
    return sum(abs(v) for v in a.values())


def _triples(flat: bytes) -> Iterator[Tuple[int, int, int]]:
    """The consecutive 3-tuples of the int64 array in ``flat``.  The
    bound's cache keeps its keys and solutions as such bytes: 8 bytes an
    int, against a pointer and, past 256, an int object in a tuple."""
    it = iter(memoryview(flat).cast("q"))
    return zip(it, it, it)


# ----------------------------------------------------------------------
# invariant-based area lower bound


class _InvariantBound:
    """Exact lower bound on filling area from abelianized invariants.

    Built from the complex and ``pi``, a projection of each generator to
    the lattice Z^2 under which every relator's path closes: a rank-2
    model's, or the complex's own (``_bound_for``).  Any such projection
    gives a valid bound, since the Fox derivative of ``u r^+-1 u^-1`` maps
    to ``+-z^pi(u)`` times ``r``'s (R. H. Fox, "Free differential calculus
    I", Ann. of Math. 57, 1953).  A word is read in one projected walk: the
    prefix point at each position, and the word's Fox vector, the flat dict
    ``key -> c`` of its position-weighted exponent sums over ``Z[Z^2]``,
    where the key of generator ``g`` at point ``k`` is ``k * G + g`` (``G``
    generators, ``k`` packed by ``pack_point``), so keys sort as ``(kx, ky,
    g)`` does.  Every row of the plain system is linear in that vector: the
    generator exponent sums and twice the signed area of the projected
    boundary path.  Any filling's signed face counts solve the plain
    system, so the minimal l1-norm over rational solutions bounds the area
    from below; the graded system over ``Z[Z^2]`` is tried first and, when
    it pins each relator's translates, gives the bound.  Its coefficient
    side depends only on the relators, so it is eliminated once, here, and
    each solve replays the recorded row operations on the word's vector
    alone, split per generator.  The bound is ``pinned`` when that
    elimination leaves every column a pivot or an exact division: then a
    feasible word has exactly one graded solution.
    The relator forms' vectors, and on a pinned bound their solutions, are
    computed once per bound too, for the word moves.

    The one cache holds ``(bound, solution)``, keyed by the Fox vector up
    to sign and translation, with the graded solution (or None) in the
    key's frame.  For a word whose projected path closes, rotating it
    multiplies the vector by a monomial ``z^c``, inverting it negates the
    vector, and free reduction leaves it unchanged.  Both systems give the
    same bound on ``+-z^c e`` as on ``e``: their solutions map to each
    other with the same norms, the graded solve's row operations are
    linear, and exact division commutes with both.  So a word's bound is
    its canonical form's bound, whichever rotation or reduction is asked,
    and a search can score a move before canonicalising it.

    Packed points are exact while every |y| the bound forms stays below
    ``POINT_HALF``.  An exponent a solve forms is a word's point plus at
    most one exponent of each polynomial ``_eliminate`` records, and a
    move adds a form's point and a frame, so ``_walk`` reads a word only
    if its length times the largest |y| step is below ``(POINT_HALF - 3
    M) / 2``, ``M`` bounding the relators' and those polynomials' |y|,
    and raises ValueError otherwise; ``_eliminate`` raises it for a
    projection whose rows could leave the range, and a cache key past
    int64 raises OverflowError.
    """

    def __init__(self, x: TwoComplex, pi: Tuple[Tuple[int, int], ...]):
        self.pi = pi
        # _walk reads words up to _max_len letters; _eliminate narrows it,
        # and until then a relator's walk stays in the packed range
        self._ystep = step = max([abs(py) for _px, py in pi], default=0)
        self._max_len = POINT_HALF // step if step else float("inf")
        es = [self._split(self._walk(w.letters)) for w in x.face_words()]
        self.n = len(es)
        # one row per generator of the graded system, one column per relator
        self.eq_matrix = [[e[g] for e in es] for g in range(len(pi))]
        self._x = x
        self._cache: Dict[bytes, Tuple[Optional[int], Optional[bytes]]] = {}
        self.lookups = 0  # of the cache, hit or not; a search counts its own
        self._eliminate()

    @cached_property
    def _steps(self) -> Tuple[List[int], List[int]]:
        """Per signed letter ``x``, at index ``x`` (an inverse counts from
        the end): the offset of its Fox key from the walk's position, and
        the step to the next position, where a position is its prefix point
        times ``G``.  A letter ``g`` at point ``v`` has the key of ``v``, an
        inverse that of ``v - pi(g)``."""
        n = len(self.pi)
        steps = [pack_point(px, py) * n for px, py in self.pi]
        back = range(n - 1, -1, -1)  # the inverses, from index n + 1 on
        pre = [0, *range(n), *[g - steps[g] for g in back]]
        post = [0, *steps, *[-steps[g] for g in back]]
        return pre, post

    @cached_property
    def matrix(self) -> List[List[Fraction]]:
        """The plain system, one column per relator; made on first use,
        since the graded solve answers every word of a pinned bound."""
        cols = [self._rows(self._walk(w.letters)) for w in self._x.face_words()]
        return [[Fraction(col[i]) for col in cols] for i in range(len(self.pi) + 1)]

    @cached_property
    def pinned(self) -> bool:
        """Whether every column no pivot took has a row in ``_left`` on it
        alone.  Then the graded solve solves each such column by exact
        division, never returns "unknown", and gives a feasible word exactly
        one solution.  This reads only ``_eliminate``'s record of the
        coefficient side, so it holds for every word or for none."""
        divided = {terms[0][0] for _g, terms, box in self._left if box is not None}
        return len(divided) == self._free

    @cached_property
    def forms(self) -> List[Tuple[Tuple[int, ...], List[Tuple[int, int]], Optional[Tuple]]]:
        """Each relator form ``w`` with the items of its Fox vector and, on a
        pinned bound, its graded solution ``(j, t, s)``, for ``_moves``.
        A form's vector is ``s z^t`` times relator ``j``'s column, for a sign
        ``s``, so its one solution is that monomial in column ``j``; every
        form of relator ``j`` shares one cache key.  Computed on first use,
        since a bound whose words are all refuted by the invariants or the
        model's word problem needs none."""
        out = []
        for w in relator_form_table(self._x):
            fox = self._walk(w)
            mono = None
            if self.pinned:
                m, s, (_h, sol) = self._entry(fox)
                ((j, t, v),) = _triples(sol)
                mono = (j, t + m, s * v)
            out.append((w, list(fox.items()), mono))
        return out

    @cached_property
    def reduced(self) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        """Each relator form, freely reduced, for the probe's seam counts:
        a complex built from raw face words may have unreduced forms."""
        return {w: reduce_ints(w) for w, _terms, _mono in self.forms}

    def _walk(self, word: Sequence[int], starts: Optional[List[int]] = None) -> Dict[int, int]:
        """The word's Fox vector: a letter g at projected prefix point v
        contributes +z^v to generator g, an inverse letter the matching
        -z^(v - pi(g)).  Given a list ``starts``, the prefix point before
        each letter is appended to it, packed."""
        if len(word) > self._max_len:
            raise ValueError("word too long for the bound's packed lattice points")
        pre, post = self._steps
        n = len(self.pi)
        fox: Dict[int, int] = {}
        v = 0
        for x in word:
            if starts is not None:
                starts.append(v // n)
            k = v + pre[x]
            v += post[x]
            nv = fox.get(k, 0) + (1 if x > 0 else -1)
            if nv:
                fox[k] = nv
            else:
                del fox[k]
        return fox

    def _split(self, fox: Dict[int, int]) -> List[Dict[int, int]]:
        """A Fox vector per generator, as the graded system's rows take it."""
        e: List[Dict[int, int]] = [{} for _ in self.pi]
        n = len(self.pi)
        for key, c in fox.items():
            k, g = divmod(key, n)
            e[g][k] = c
        return e

    def _rows(self, fox: Dict[int, int]) -> Optional[Tuple[int, ...]]:
        """The plain rows of a word from its Fox vector: each generator's
        exponent sum (the sum of its coefficients) and twice the signed
        area of the projected path (``c * (k x pi(g))`` summed over the
        terms ``c z^k`` of generator ``g``).  None when the projected path,
        ending at the exponent sums times the projections, does not
        close."""
        n = len(self.pi)
        sums = [0] * n
        ex = ey = twice = 0
        for key, c in fox.items():
            k, g = divmod(key, n)
            kx, ky = unpack_point(k)
            px, py = self.pi[g]
            sums[g] += c
            ex += c * px
            ey += c * py
            twice += c * (kx * py - ky * px)
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
        reduced system has exactly the solutions of the original one.

        ``r[g]`` bounds the |y| of row ``g``'s exponents: a relator's walk
        reaches at most its length times the largest |y| step, a unit
        doubles its row's bound, and subtracting a multiple of the pivot row
        adds that row's bound.  ValueError if one reaches ``POINT_HALF``;
        otherwise the largest, times the number of recorded polynomials,
        sets ``_max_len`` (see the class docstring)."""
        n = self.n
        active = [(g, [dict(c) for c in row]) for g, row in enumerate(self.eq_matrix)]
        step = self._ystep
        r = [step * max(map(len, self._x.faces), default=0)] * len(active)
        forms = 2 * r[0] if r else 0  # a form's walk, a rotated relator's
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
                unit = {-t: v}
                coeffs = [_lp_mul(unit, cc) for cc in coeffs]
                ops.append((g, unit, None))
                r[g] *= 2
                active.pop(idx)
                for j, (gj, cj) in enumerate(active):
                    f = cj[col]
                    if f:
                        active[j] = (gj, [_lp_add(cc, _lp_mul(f, pc), -1)
                                          for cc, pc in zip(cj, coeffs)])
                        ops.append((gj, f, g))
                        r[gj] += r[g]
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
        top = max(r, default=0)
        if top >= POINT_HALF:
            raise ValueError("projection too large for the bound's packed lattice points")
        if step:
            # each op's multiplier and each term of a recorded row
            reach = forms + (len(ops) + len(r) * n) * top
            self._max_len = (POINT_HALF - 3 * reach) // (2 * step)

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
        return self.vector_bound(self._walk(word))

    def vector_bound(self, fox: Dict[int, int]) -> Optional[int]:
        """The bound of a word whose Fox vector is ``fox``, through the
        cache."""
        return self._entry(fox)[2][0]

    def _entry(self, fox: Dict[int, int]) -> Tuple:
        """``(m, s, (bound, solution))`` for the Fox vector ``fox``: the
        cache entry of its key, which is ``fox`` translated by ``-m`` (the
        point of its least key) times the sign ``s`` of that key's
        coefficient, encoded as the int64 bytes of the translated keys in
        order and then their coefficients.  A miss computes the entry from
        the key's terms, so a cached value does not depend on which word
        filled it.  The solution is in the key's frame: ``fox``'s is ``s
        z^m`` times it."""
        keys = sorted(fox)
        coeffs = list(map(fox.__getitem__, keys))
        off, s = 0, 1
        if keys:
            off = keys[0] - keys[0] % len(self.pi)
            if coeffs[0] < 0:
                s, coeffs = -1, [-c for c in coeffs]
        moved = [k - off for k in keys] if off else keys
        key = array("q", moved + coeffs).tobytes()
        self.lookups += 1
        entry = self._cache.get(key)
        if entry is None:
            entry = self._cache[key] = self._bound(dict(zip(moved, coeffs)))
        return off // len(self.pi), s, entry

    def _bound(self, fox: Dict[int, int]) -> Tuple[Optional[int], Optional[bytes]]:
        """``(bound, solution)``, where the solution is the graded one, as
        the int64 bytes of the terms ``j, k, c`` of its columns, when the
        graded solve is "ok" (on a pinned bound, for every feasible word)
        and None otherwise.  The zero vector, a word that the invariants
        cannot tell from the identity, needs no solve: both systems give it
        bound 0, and the graded one the empty solution when pinned."""
        if not fox:
            return 0, b"" if self.pinned else None
        # every relator's projected path closes, so the graded system has
        # no solution for a word whose path does not, and needs no test
        res = self._solve_laurent_system(self._split(fox))
        if res[0] == "infeasible":
            return None, None
        if res[0] == "ok":
            flat = [v for j, col in enumerate(res[2])
                    for k, c in col.items() for v in (j, k, c)]
            return res[1], array("q", flat).tobytes()
        rows = self._rows(fox)
        if rows is None:
            return None, None
        val = self._solve(rows)
        return (None if val is None else ceil(val)), None

    def _solve(self, b: Tuple[int, ...]) -> Optional[Fraction]:
        """The least l1-norm of a rational solution, None when there is
        none.  It is taken at a solution whose support's columns are
        independent (a vertex of the linear program), and such a support
        extends, with the same solution, to one of ``rank`` independent
        columns, which reach every ``b`` in their span.  So only those are
        tried: a support does when its augmented matrix has its pivots
        exactly on the support."""
        rank = len(_rref(self.matrix)[1])
        norms = []
        for support in combinations(range(self.n), rank):
            rows, pivots = _rref([[row[j] for j in support] + [Fraction(bi)]
                                  for row, bi in zip(self.matrix, b)])
            if pivots == list(range(rank)):
                norms.append(sum(abs(row[-1]) for row in rows))
        return min(norms, default=None)


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

# Words A* stores (``len(dist)``) and bound cache lookups it makes before
# ``relator_bfs`` gives up uncertified, and nodes the bound-perfect probe
# visits before handing over to A*.  A* expands each stored word at most
# once (see ``_astar``), so the store cap bounds its expansions too, and a
# lookup adds at most one cache entry, so it bounds the cache's growth.  On
# a pinned bound A* looks up one vector per expansion; on one that is not,
# one per form and distinct prefix: over <a, b | [a^2,b^2], [a^3,b^3]>,
# ``relator_bfs`` on [a, b] at bound 4 gives up after 334 expansions, in
# about 5 s at 43 MB.  No tested or pinned search stores more than 41,019
# words (a conjugated relator product of the A* pin, at bound 3 with a
# model), nor any benchmark query more than 162.
MAX_STORED = 200_000
PROBE_NODE_BUDGET = 30_000
# Gluings one complex's disk stream (``_DiskAreas``, which ``diagram_search``
# reads) tries over all its levels before it raises ``ResourceCapError``.
# No gallery stream in the tests tries more than 11,580 (eq1 to area 5), and
# thm1's to area 5 tries 99,388.  Over <a, b | [a^2,b^2], [a^3,b^3]>,
# ``auto`` on [a, b] at bound 4 reaches the cap while growing area 4, after
# about 12 s at a peak of 276 MB; uncapped, that level passed 1.1 GB within
# 900,000 gluings.  The cap is below thm2's stream to area 8 (387,917) and
# thm1's to area 6 (1,431,196), which took 47 s and about 1 GB uncapped, so
# ``diagram_search`` no longer answers there.
MAX_CANDIDATES = 200_000
# Letters a complex's own projection must let its bound read (``_max_len``)
# for ``_own_projection`` to keep it.  Every gallery's reads 14,542 or more
# (thm1).  Over random presentations of 8 to 10 generators and one or two
# relators fewer, most own projections read no word; of 6 generators and 5
# relators, a few read none and one read 559.
MIN_WALK = 1_000


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
    insertions as moves, guided by the invariant lower bound of
    ``_bound_for``, which projects with a rank-2 model when one is given and
    with the complex's own projection otherwise; its result is certified
    unless the words the search stores and the bound cache lookups it makes
    number more than ``MAX_STORED``.
    Each move is scored before it is canonicalised (see ``_moves``): on a
    pinned bound, in O(1) from the parent's graded solution, since an
    insertion changes one coefficient of it by one; otherwise from the parent's Fox vector
    plus the inserted form's, shifted to the projected prefix at the
    insertion point, once per form and distinct prefix.  The bound-perfect
    probe that runs first asks only for the moves that drop the bound by
    one, which a pinned bound lists from the solution's nonzero terms, and
    groups them by their reduced length, counted at the insertion's seams,
    building a group's words only when the probe reaches it.  Only the
    moves a search keeps are canonicalised.  That is exact: canonicalising a
    closed word rotates, inverts and freely reduces it, which changes its
    Fox vector only by sign and translation, and the bound is invariant
    under both.  A "no filling" is certified by the invariants, by the
    model's word problem when a model is given, or by exhausting every move
    sequence of length at most ``bound``.  ``diagram_search`` minimizes
    over enumerated disks glued at cut vertices: the area of a cyclic word is the least of its
    enumerated-disk area and ``best(u) + best(v)`` over its splits into two
    arcs ``u`` and ``v``.  It tries only the splits at positions ``i < j``
    whose prefix exponent vectors agree modulo the rational span of the
    relators' vectors.  That is exact: a fillable ``u`` is null-homotopic,
    so its exponent vector lies in the span, and each unordered split gives
    the same two arcs, with the same sum, from either end; its answer is
    always certified.  Its disks come from ``disk_boundary_table``, which
    enumerates each complex's levels once for all bounds and raises
    ``ResourceCapError`` once they have tried ``MAX_CANDIDATES`` gluings.

    ``auto`` first asks what ``relator_bfs`` certifies before its A*: the
    invariants, the model's word problem and the probe.  A word these leave
    open goes to A*, and at ``bound <= 6`` to ``diagram_search`` if A*
    gives up.  Without a model at ``bound <= 4``, A* gives up after 2,000
    stored words and lookups (fewer below area 4), since there enumerating
    the disks costs less than storing ``MAX_STORED`` words; otherwise it
    runs to ``MAX_STORED``.
    """
    if method not in ("auto", "relator_bfs", "diagram_search"):
        raise ValueError(f"unknown oracle method {method!r}")
    letters = canonical_cyclic(_as_letters(w))
    if letters == ():
        return AreaResult(0, True, method)
    if method == "diagram_search":
        return _diagram_search(letters, x, bound)
    hb = _bound_for(x, model)
    h0 = hb.bound(letters)
    res = _certificate(letters, h0, hb, x, bound, model)
    if res is not None:
        return res
    if method == "relator_bfs" or bound > 6:
        return _astar(letters, h0, hb, bound, MAX_STORED)  # enumerating past area 6 does not pay
    # Without the word problem, A* refutes a word only by exhausting its
    # search.  Enumerating any gallery complex's disks to area 4 takes at
    # most 0.18 s (thm1), about what A* takes to store 6,000 words, so there
    # A* gives up early, at 2,000 words at area 4 and a tenth of that per
    # area below; to area 5 thm1 takes 2.7 s, and its stream to area 6 passes
    # MAX_CANDIDATES.  A word reaches this A* when the complex's own bound is
    # not pinned: over <a, b | [a^2,b^2], [a^3,b^3]>, [a, b] at bound 2 takes
    # 0.05 s with the cap and 2 s without it.
    cap = MAX_STORED
    if model is None and bound <= 4:
        cap = MAX_STORED // 10 ** (6 - bound)
    res = _astar(letters, h0, hb, bound, cap)
    return res if res.certified_exact else _diagram_search(letters, x, bound)


def _moves(
    cur: Tuple[int, ...], hb: _InvariantBound, target: Optional[int] = None
) -> Iterator[Tuple[Optional[int], int, Tuple[int, ...]]]:
    """Every insertion of a relator form into ``cur``, scored before it is
    canonicalised: yields ``(h, i, w)``, where ``h`` is the bound of
    ``cur[:i] + w + cur[i:]``; given a ``target``, only the moves with
    ``h == target``.  A form's projected path closes, so the inserted
    word's Fox vector is ``cur``'s plus the form's, shifted to the
    projected prefix at ``i``.

    On a pinned bound, a feasible ``cur`` has one graded solution, read
    from the cache in one lookup.  The system is linear, and the shifted
    form's solution is ``s z^(t + prefix)`` in one column ``j``, so the
    inserted word's solution is ``cur``'s with the coefficient ``c`` at that
    place changed by ``s``, and each move scores ``h - |c| + |c + s|`` in
    O(1).  That drops the bound by one exactly when ``c`` is nonzero and
    ``s`` has the opposite sign, so for the target ``h - 1`` the moves are
    listed from the solution's nonzero terms: each term's forms (those on
    its column with the opposite sign), at the positions whose projected
    prefix puts the form on that term, looked up in a dict from each
    prefix point to its positions.  Otherwise each form's vector is added
    to ``cur``'s and scored by ``vector_bound`` once per distinct prefix,
    and a target only filters.  The bound's cache is keyed up to sign and
    translation, so ``h`` is also the bound of the canonical form."""
    starts: List[int] = []
    base = hb._walk(cur, starts)
    sol = None
    if hb.pinned:
        m, s, (h, sol) = hb._entry(base)
    if sol is not None and target == h - 1:
        at: Dict[int, List[int]] = {}
        for i, p in enumerate(starts):
            at.setdefault(p, []).append(i)
        # cur's solution is s z^m times sol, the key's, so a form with
        # solution v z^t lands on the key's term at t - m + prefix
        on: Dict[Tuple[int, int], List[Tuple]] = {}
        for w, _terms, (j, t, v) in hb.forms:
            on.setdefault((j, s * v), []).append((w, m - t))
        for j, k, c in _triples(sol):
            for w, d in on.get((j, -1 if c > 0 else 1), ()):
                for i in at.get(k + d, ()):
                    yield target, i, w
        return
    if sol is not None:
        coeff = {(j, k): c for j, k, c in _triples(sol)}
        for w, _terms, (j, t, v) in hb.forms:
            # cur's coefficient c' at p is s * coeff[p - m], and |c' + v| = |c + s v|
            t, v = t - m, s * v
            for i, p in enumerate(starts):
                c = coeff.get((j, t + p), 0)
                score = h - abs(c) + abs(c + v)
                if target is None or score == target:
                    yield score, i, w
        return
    n = len(hb.pi)
    for w, terms, _mono in hb.forms:
        scores: Dict[int, Optional[int]] = {}
        for i, start in enumerate(starts):
            if start not in scores:
                shift = start * n
                fox = base.copy()
                for k, v in terms:
                    k += shift
                    nv = fox.get(k, 0) + v
                    if nv:
                        fox[k] = nv
                    else:
                        del fox[k]
                scores[start] = hb.vector_bound(fox)
            if target is None or scores[start] == target:
                yield scores[start], i, w


def _core_length(cur: Tuple[int, ...], i: int, w: Tuple[int, ...]) -> int:
    """``len(cyclic_core(cur[:i] + w + cur[i:]))`` for a cyclically reduced
    ``cur`` and a freely reduced ``w``, from the cancellations at the seams.

    Free reduction is confluent, so it may cancel ``w``'s start against
    ``cur[:i]``, then what is left of ``w`` against ``cur[i:]``, and, when
    ``w`` cancelled whole, the two sides of ``cur`` against each other.
    The reduced word is ``cur[:a] + w[k1:m - k2] + cur[n - c:]``.  When
    both sides of ``cur`` are left, it starts with ``cur[0]`` and ends with
    ``cur[-1]``, which do not cancel; otherwise one count of cancellation
    between its two ends gives the core."""
    n, m = len(cur), len(w)
    k1 = 0
    while k1 < m and k1 < i and cur[i - 1 - k1] == -w[k1]:
        k1 += 1
    k2 = 0
    while k1 + k2 < m and i + k2 < n and w[m - 1 - k2] == -cur[i + k2]:
        k2 += 1
    a, c = i - k1, n - i - k2
    if k1 + k2 == m:
        while a and c and cur[a - 1] == -cur[n - c]:
            a -= 1
            c -= 1
    if a and c:
        return a + m - k1 - k2 + c
    r = cur[:a] + w[k1 : m - k2] + cur[n - c :]
    k = 0
    while len(r) - 2 * k >= 2 and r[k] == -r[-1 - k]:
        k += 1
    return len(r) - 2 * k


def _perfect_probe(
    letters: Tuple[int, ...],
    h0: int,
    hb: _InvariantBound,
) -> Optional[int]:
    """Depth-first hunt for a filling that meets the lower bound exactly.

    Only moves dropping the invariant bound by exactly one are followed, so
    the depth of every state is forced and a global visited set is sound.
    A node at depth ``d`` has bound ``h0 - d``, and ``_moves`` lists its
    moves to ``h0 - d - 1`` from the support of its graded solution when
    the bound is pinned.  Returns the node count on success, None when the
    budget runs out or no bound-perfect filling exists.

    A node's successors are its kept moves' canonical words in
    ``(len, word)`` order, less the words already seen when the node was
    pushed.  The search usually takes the first, so they are made lazily:
    the kept moves ``(i, w)`` are grouped by the length of the cyclic
    reduction of ``cur[:i] + w + cur[i:]``, which is the length of its
    canonical word and is counted at the seams (``_core_length``) without
    building it, and a length class's words are built, canonicalised and
    sorted only when the search first reaches it.  A word is dropped only
    if ``seen`` had it when the node was pushed (``seen`` maps each word
    to its insertion index), and a word seen later still costs its node
    when its turn comes.  So the order and every node count are those of
    the eager list.
    """
    seen = {letters: 0}
    nodes = 0
    reduced = hb.reduced

    def successors(
        cur: Tuple[int, ...], remaining: int, pushed: int
    ) -> Iterator[Tuple[int, ...]]:
        by_len: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        for _h, i, w in _moves(cur, hb, remaining - 1):
            by_len.setdefault(_core_length(cur, i, reduced[w]), []).append((i, w))
        for n in sorted(by_len):
            for nxt in sorted({canonical_cyclic(cur[:i] + w + cur[i:]) for i, w in by_len[n]}):
                if seen.get(nxt, pushed) >= pushed:
                    yield nxt

    stack = [successors(letters, h0, len(seen))]
    while stack:
        nodes += 1
        if nodes > PROBE_NODE_BUDGET:
            return None
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            continue
        if nxt in seen:
            continue
        seen[nxt] = len(seen)
        remaining = h0 - len(stack)
        if nxt == ():
            return nodes
        if remaining <= 0:
            continue
        stack.append(successors(nxt, remaining, len(seen)))
    return None


def _certificate(
    letters: Tuple[int, ...],
    h0: Optional[int],
    hb: _InvariantBound,
    x: TwoComplex,
    bound: int,
    model: Optional[FreeProductModel],
) -> Optional[AreaResult]:
    """``relator_bfs``'s answer before A*, given the word's invariant bound
    ``h0``: a "no filling" from the invariants, the model's word problem or
    a lower bound past ``bound``, or a filling that the probe finds to meet
    the bound; None when they leave the word open."""
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
    return None


def _astar(
    letters: Tuple[int, ...], h0: int, hb: _InvariantBound, bound: int, cap: int
) -> AreaResult:
    """``relator_bfs`` past its certificates: A* from a word of bound
    ``h0`` over the words that relator insertions reach, guided by the
    invariant bound; uncertified once an expansion leaves more than
    ``cap`` words stored and bound cache lookups made."""
    # A move adds a form's vector to the word's, so out of a feasible word
    # it stays feasible, and it moves the bound by at most one: exactly one
    # on a pinned bound, one relator column of the plain system otherwise.
    # So the heuristic is consistent and each word is expanded at most once.
    dist: Dict[Tuple[int, ...], int] = {letters: 0}
    heap: List[Tuple[int, int, int, Tuple[int, ...]]] = [(h0, 0, len(letters), letters)]
    expanded = 0
    looked = hb.lookups
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
        g2 = g + 1
        for h, i, w in _moves(cur, hb):
            if g2 + h > bound:
                continue
            nxt = canonical_cyclic(cur[:i] + w + cur[i:])
            if dist.get(nxt, bound + 1) <= g2:
                continue
            dist[nxt] = g2
            heapq.heappush(heap, (g2 + h, -g2, len(nxt), nxt))
        # each score looked up may add a cache entry, so they count as
        # stored too: on a bound that is not pinned they outnumber the words
        if len(dist) + hb.lookups - looked > cap:
            return AreaResult(None, False, "relator_bfs", expanded=expanded,
                              note="store cap hit")
    return AreaResult(None, True, "relator_bfs", expanded=expanded, note="no filling within bound")


# keyed by what the bound reads: the complex and the lattice projection
_cached_bound = lru_cache(maxsize=None)(_InvariantBound)


def _bound_for(x: TwoComplex, model: Optional[FreeProductModel]) -> _InvariantBound:
    """The invariant bound over ``x`` with a rank-2 model's lattice
    projection, or else with the complex's own: ``_letter_classes``'s
    functionals ``f_1 .. f_r`` (a basis of the homomorphisms to Z that kill
    every relator) send generator ``g`` to ``(sum_k f_k(g), sum_k k
    f_k(g))``, which is ``(0, 0)`` when ``r = 0``, unless
    ``_own_projection`` falls back to the zero projection.  Each kills
    every relator, which is all the bound needs of its projection."""
    if model is not None and model.abelian_rank == 2:
        return _cached_bound(x, tuple(map(model.pi, x.alphabet)))
    return _cached_bound(x, _own_projection(x))


@lru_cache(maxsize=None)
def _own_projection(x: TwoComplex) -> Tuple[Tuple[int, int], ...]:
    """The complex's own lattice projection (see ``_bound_for``), or the
    zero projection when the bound it gives could not read words of
    ``MIN_WALK`` letters: its rows leave the packed range, or its
    ``_max_len`` is shorter.  The zero projection's bound reads any word."""
    classes = map(_letter_classes(x).__getitem__, range(1, len(x.alphabet) + 1))
    pi = tuple((sum(c), sum(k * v for k, v in enumerate(c, 1))) for c in classes)
    with suppress(ValueError):  # rows past the packed range
        if _cached_bound(x, pi)._max_len >= MIN_WALK:
            return pi
    return ((0, 0),) * len(x.alphabet)


class _DiskAreas:
    """One complex's level stream (``_levels``) and the least area of each
    canonical boundary word over the levels read from it so far: ``read``
    of them.  Levels come in increasing area, so a word's first area is
    its least."""

    __slots__ = ("levels", "least", "read")

    def __init__(self, x: TwoComplex):
        self.levels = _levels(x, MAX_CANDIDATES)
        self.least: Dict[Tuple[int, ...], int] = {}
        self.read = 0


# keyed by the complex's content, like the bounds
_disk_areas = lru_cache(maxsize=None)(_DiskAreas)


@lru_cache(maxsize=None)
def disk_boundary_table(x: TwoComplex, bound: int) -> Dict[Tuple[int, ...], int]:
    """Canonical boundary word -> minimal enumerated-disk area, over the
    disks of area at most ``bound``; callers must not change the returned
    dict.

    Every bound over one complex reads the one ``_DiskAreas`` of its
    content, which enumerates a level only when a bound first asks for
    it, so no level is enumerated twice.  Each ``(x, bound)`` keeps its
    own table: the shared dict filtered to areas ``<= bound``, which is
    what enumerating to ``bound`` alone would give, in the same order.
    An interrupted extension can leave a partial level, and a generator
    that raised cannot resume, so it starts the complex's stream afresh."""
    areas = _disk_areas(x)
    try:
        for level in islice(areas.levels, max(0, bound - areas.read)):
            for d in level:
                areas.least.setdefault(canonical_cyclic(d.boundary_word_ints()), d.area)
            areas.read += 1
    except BaseException:
        areas.__init__(x)
        raise
    return {w: a for w, a in areas.least.items() if a <= bound}


@lru_cache(maxsize=None)
def _letter_classes(x: TwoComplex) -> Dict[int, Tuple[int, ...]]:
    """Each letter's exponent vector modulo the rational span of the
    relators' exponent vectors.  A class is the tuple of values under
    integer functionals that span the relator matrix's null space, so
    they vanish together exactly on that span.  Computed once per complex
    (keyed by its content); callers must not change the returned dict."""
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
    # a nonempty cyclically reduced word has no filling of area below 1,
    # and none at all without 2-cells
    value = None
    if bound >= 1 and x.faces:
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
    d: DiskDiagram,
    x: TwoComplex,
    model: Optional[FreeProductModel] = None,
    hb: Optional[_InvariantBound] = None,
) -> Optional[bool]:
    """Whether the diagram's area equals the certified minimal area of its
    boundary word; None when ``area_oracle`` (auto, at the diagram's own
    area, since no larger area matters) cannot certify it.  The invariant
    bound is asked first, about the boundary word as it stands: the bound
    does not see rotation, inversion or free reduction, so the word need not
    be canonicalised, and a diagram that meets the bound is minimal.

    The bound's value is kept in ``d._bound`` with the bound object that
    gave it, and reused only for that same object.  Bound objects are
    cached by content (the complex and the lattice projection), so
    the same object means the same complex and projection.  The oracle's
    answer below the bound is not kept: it reads the whole model.

    ``hb`` is ``_bound_for(x, model)``, looked up when it is not given; a
    scan pass looks it up once and passes it to every call."""
    if hb is None:
        hb = _bound_for(x, model)
    if d._bound is None or d._bound[0] is not hb:
        d._bound = (hb, hb.bound(d.boundary_word_ints()))
    if d._bound[1] == d.area:
        return True
    res = area_oracle(d.boundary_word_ints(), x, bound=d.area, model=model)
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
