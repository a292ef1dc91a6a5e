"""Whole-complex property checkers and the linear-bound recursion.

Scans quantify over oracle-certified minimal diagrams only; diagrams whose
minimality cannot be certified at the configured bound are reported as
unknown, never as violations.  Single-cell diagrams are exempt per the
generalized Dehn property's single-cell clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from .presentation import Presentation, TwoComplex, Word, symmetrized
from .group_models import FreeProductModel, trivial_subword_witness
from .diagram import (
    DiskDiagram,
    find_cutcells,
    find_shells,
    find_spurs,
)
from .enumeration import EnumerationConfig, enumerate_diagrams, is_minimal


@dataclass(frozen=True)
class PropertyReport:
    property_name: str
    scanned: int
    violations: Tuple[Tuple[object, str], ...]
    exemptions: Tuple[object, ...] = ()
    unknowns: Tuple[object, ...] = ()
    bound: Optional[int] = None

    @property
    def holds(self) -> bool:
        return not self.violations


def _scan_diagrams(
    x: TwoComplex,
    bound: int,
    detector: Callable[[DiskDiagram], Optional[str]],
    property_name: str,
    model: Optional[FreeProductModel] = None,
    diagrams: Optional[Iterable[DiskDiagram]] = None,
) -> PropertyReport:
    corpus = (
        diagrams
        if diagrams is not None
        else enumerate_diagrams(x, EnumerationConfig(max_area=bound))
    )
    scanned = 0
    violations: List[Tuple[object, str]] = []
    exemptions: List[object] = []
    unknowns: List[object] = []
    for d in corpus:
        if d.area > bound:
            continue
        minimal = is_minimal(d, x, model=model)
        if minimal is None:
            unknowns.append(d)
            continue
        if not minimal:
            continue
        scanned += 1
        if d.area <= 1:
            exemptions.append(d)
            continue
        reason = detector(d)
        if reason is not None:
            violations.append((d, reason))
    violations.sort(key=lambda pair: pair[0].canonical_code())
    return PropertyReport(
        property_name,
        scanned,
        tuple(violations),
        tuple(exemptions),
        tuple(unknowns),
        bound,
    )


def _has_spur_or_shell(d: DiskDiagram) -> bool:
    """Whether ``d`` has a spur or shell, asked of the detectors once per
    diagram and kept in ``d._spur_or_shell``.  Every scan pass asks it
    first, so passes over one corpus share it; the witness lists are not
    kept."""
    if d._spur_or_shell is None:
        d._spur_or_shell = bool(find_spurs(d) or find_shells(d))
    return d._spur_or_shell


def check_dehn(
    x: TwoComplex,
    bound: int,
    model: Optional[FreeProductModel] = None,
    diagrams: Optional[Iterable[DiskDiagram]] = None,
) -> PropertyReport:
    """Every minimal nontrivial diagram must contain a spur or shell."""

    def detector(d: DiskDiagram) -> Optional[str]:
        if _has_spur_or_shell(d):
            return None
        return "minimal diagram with no spur and no shell"

    return _scan_diagrams(x, bound, detector, "dehn", model, diagrams)


def check_generalized_dehn(
    x: TwoComplex,
    defn: int,
    bound: int,
    model: Optional[FreeProductModel] = None,
    diagrams: Optional[Iterable[DiskDiagram]] = None,
) -> PropertyReport:
    """Spur, shell, or cutcell (of the given definition) in every minimal
    multi-cell topological disk."""
    if defn not in (1, 2, 3):
        raise ValueError("cutcell definition must be 1, 2 or 3")

    def detector(d: DiskDiagram) -> Optional[str]:
        if _has_spur_or_shell(d) or find_cutcells(d, defn):
            return None
        return f"minimal diagram with no spur, shell, or cutcell({defn})"

    return _scan_diagrams(x, bound, detector, f"gdehn{defn}", model, diagrams)


# ----------------------------------------------------------------------
# pieces


@dataclass(frozen=True)
class PieceSite:
    relator_index: int
    position: int
    orientation: int


@dataclass(frozen=True)
class Piece:
    word: Word
    site_a: PieceSite
    site_b: PieceSite


def pieces(p: Presentation) -> List[Piece]:
    """Maximal common boundary arcs between 2-cell sites.

    Sites range over all rotations of all relators and their inverses
    (self-overlaps at distinct sites included); a site is never compared
    with itself.
    """
    forms = [(w, PieceSite(idx, rot, orient)) for w, idx, rot, orient in symmetrized(p.relators)]
    out: List[Piece] = []
    for i in range(len(forms)):
        wa, sa = forms[i]
        for j in range(i + 1, len(forms)):
            wb, sb = forms[j]
            n = 0
            limit = min(len(wa), len(wb))
            while n < limit and wa[n] == wb[n]:
                n += 1
            if n:
                out.append(Piece(Word(wa[:n], p.names), sa, sb))
    return out


def big_pieces(p: Presentation) -> List[Piece]:
    """Pieces at least half the shorter perimeter of their two cells."""
    perims = [len(r) for r in p.relators]
    out = []
    for piece in pieces(p):
        shorter = min(perims[piece.site_a.relator_index], perims[piece.site_b.relator_index])
        if 2 * len(piece.word) >= shorter:
            out.append(piece)
    return out


def has_big_pieces(p: Presentation) -> bool:
    return bool(big_pieces(p))


# ----------------------------------------------------------------------
# cell embedding


def check_cells_embed(p: Presentation, m: FreeProductModel) -> PropertyReport:
    """Apply the boundary-circuit embedding test to every relator."""
    violations = []
    for idx, r in enumerate(p.relators):
        witness = trivial_subword_witness(r, m)
        if witness is not None:
            violations.append(
                (r, f"relator {idx} has trivial proper subword {witness.text()!r}")
            )
    return PropertyReport("cells_embed", len(p.relators), tuple(violations))


# ----------------------------------------------------------------------
# the linear-bound recursion


@dataclass(frozen=True)
class FSequence:
    """Values of the recursive majorant f with cell-perimeter bound c.

    f(0) = 0 and f(n) = 1 + max over part sequences n_i < n with
    sum n_i <= n + c of the sum of f(n_i).
    """

    c: int
    values: Tuple[int, ...]

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be at least 1")
        if not self.values or self.values[0] != 0:
            raise ValueError("f(0) must be 0")

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def f_values(c: int, N: int) -> FSequence:
    """Exact f(0..N) by dynamic programming (unbounded knapsack per n)."""
    if c < 1:
        raise ValueError("c must be at least 1")
    f = [0]
    for n in range(1, N + 1):
        budget = n + c
        # best[b]: max sum of f over parts < n with total part size <= b
        best = [0] * (budget + 1)
        for b in range(1, budget + 1):
            acc = best[b - 1]
            top = min(n - 1, b)
            for part in range(1, top + 1):
                cand = best[b - part] + f[part]
                if cand > acc:
                    acc = cand
            best[b] = acc
        f.append(1 + best[budget])
    return FSequence(c, tuple(f))


def brute_force_f(c: int, N: int) -> Tuple[int, ...]:
    """Independent oracle: exhaust all nonincreasing part multisets."""
    values = [0]

    def max_sum(budget: int, cap: int) -> int:
        # max sum of values[p] over parts p <= cap with total <= budget
        if budget <= 0 or cap <= 0:
            return 0
        best = max_sum(budget, cap - 1)
        if cap <= budget:
            cand = values[cap] + max_sum(budget - cap, cap)
            if cand > best:
                best = cand
        return best

    for n in range(1, N + 1):
        values.append(1 + max_sum(n + c, n - 1))
    return tuple(values)


@dataclass(frozen=True)
class PropositionReport:
    c: int
    N: int
    increments_nondecreasing: bool
    tail_arithmetic: bool
    slope: Optional[int]
    K: Optional[int]

    @property
    def ok(self) -> bool:
        return self.increments_nondecreasing and self.tail_arithmetic


def verify_proposition_bound(c: int, N: int) -> PropositionReport:
    """Check the nondecreasing increments, the arithmetic tail from c+2,
    and report the linear slope 1 + K with K = f(c+2) - f(c+1) - 1."""
    if N < c + 2:
        raise ValueError("N must reach c + 2 to see the arithmetic tail")
    seq = f_values(c, N)
    incs = [seq[n] - seq[n - 1] for n in range(1, N + 1)]
    nondecreasing = all(a <= b for a, b in zip(incs, incs[1:]))
    step = seq[c + 2] - seq[c + 1]
    tail = all(seq[n] - seq[n - 1] == step for n in range(c + 2, N + 1))
    K = step - 1
    report = PropositionReport(c, N, nondecreasing, tail, step, K)
    if not report.ok:
        raise AssertionError(f"linear-bound recursion failed for c={c}: {report}")
    return report
