"""The invariant bound's packed lattice points against the tuple keys they
replaced.

A Fox-vector key is ``point * G + g`` with ``point = pack_point(x, y)``, and
the cache key is the int64 bytes of the translated keys and their signed
coefficients.  The references below are the tuple-keyed ``(kx, ky, g)``
walk, cache-key normalisation and move generator the bound used before
the packing; the packing must give the same classes of words, frames,
bounds, solutions and moves.
"""

import importlib.util
import sys
from itertools import combinations
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vankampen.enumeration import (
    _InvariantBound,
    _moves,
    _triples,
    canonical_cyclic,
)
from vankampen.gallery import GALLERY_IDS, presentation
from vankampen.group_models import POINT_HALF, pack_point, unpack_point
from vankampen.presentation import invert_ints, presentation_complex

ROOT = Path(__file__).resolve().parents[1]


def projection(gid, graded=True):
    """The gallery's complex and its model's projection, or, not graded,
    every generator at the origin: the exponent-sum bound."""
    p, m = presentation(gid)
    return presentation_complex(p), tuple(map(m.pi, p.names) if graded else [(0, 0)] * len(p.names))


def reference_walk(word, pi, starts=None):
    """The tuple-keyed Fox vector ``(kx, ky, g) -> c``; given a list
    ``starts``, the prefix point before each letter is appended to it."""
    fox, vx, vy = {}, 0, 0
    for x in word:
        if starts is not None:
            starts.append((vx, vy))
        g = abs(x) - 1
        px, py = pi[g]
        if x > 0:
            key = (vx, vy, g)
            vx, vy = vx + px, vy + py
        else:
            vx, vy = vx - px, vy - py
            key = (vx, vy, g)
        nv = fox.get(key, 0) + (1 if x > 0 else -1)
        if nv:
            fox[key] = nv
        else:
            del fox[key]
    return fox


def reference_key(fox):
    """``(frame, sign, key)``: the least term's point, the sign of its
    coefficient, and the flat terms ``kx, ky, g, c`` translated by the frame
    and multiplied by the sign."""
    items = sorted(fox.items())
    (mx, my, _g), lead = items[0] if items else ((0, 0, 0), 1)
    s = 1 if lead > 0 else -1
    return (mx, my), s, tuple(t for (kx, ky, g), v in items for t in (kx - mx, ky - my, g, s * v))


def decoded_key(hb, key):
    """The flat terms ``kx, ky, g, c`` that a packed cache key encodes."""
    vals = memoryview(key).cast("q").tolist()
    half = len(vals) // 2
    out = []
    for k, c in zip(vals[:half], vals[half:]):
        point, g = divmod(k, len(hb.pi))
        out += (*unpack_point(point), g, c)
    return tuple(out)


class KeyRecorder(dict):
    """A bound's cache that remembers the last key it was asked for."""

    def get(self, key, default=None):
        self.last = key
        return super().get(key, default)


def packed_entries(hb, words):
    """Per word: the frame, the sign, the cache key and the entry, through
    a fresh recording cache."""
    hb._cache = KeyRecorder()
    out = []
    for w in words:
        m, s, entry = hb._entry(hb._walk(w))
        out.append((unpack_point(m), s, hb._cache.last, entry))
    return out


def ref_mul(a, b):
    out = {}
    for (ax, ay), av in a.items():
        for (bx, by), bv in b.items():
            k = (ax + bx, ay + by)
            out[k] = out.get(k, 0) + av * bv
    return {k: v for k, v in out.items() if v}


def assert_entry_matches_reference(hb, x, ref, entry):
    """The entry's bound and solution are those of the reference key's
    vector: a graded solution, decoded, times the relators' tuple-keyed
    columns gives back the key's vector, and its norm is the bound (on a
    pinned bound a feasible word has one solution).  Otherwise the entry is
    the solve of the reference vector, packed afresh, and with every
    generator at the origin a bound is the plain solve of the exponent sums
    read off the tuple-keyed vector."""
    bound, sol = entry
    terms = {(kx, ky, g): c for kx, ky, g, c in zip(*[iter(ref)] * 4)}
    if sol is not None:
        cols = [{} for _ in x.faces]
        for j, k, c in _triples(sol):
            cols[j][unpack_point(k)] = c
        assert bound == sum(abs(c) for col in cols for c in col.values())
        got = {}
        for j, face in enumerate(x.faces):
            for (kx, ky, g), c in reference_walk(face, hb.pi).items():
                for k, v in ref_mul({(kx, ky): c}, cols[j]).items():
                    got[(*k, g)] = got.get((*k, g), 0) + v
        assert {k: v for k, v in got.items() if v} == terms
        return
    G = len(hb.pi)
    assert entry == hb._bound({pack_point(kx, ky) * G + g: c for (kx, ky, g), c in terms.items()})
    if bound is not None and not any(map(any, hb.pi)):
        sums = [0] * G
        for (_kx, _ky, g), c in terms.items():
            sums[g] += c
        assert bound == ceil(hb._solve((*sums, 0)))


@st.composite
def word_batches(draw):
    """(gallery, graded, words): random words, long ones among them, with
    some rotated, inverted and conjugated copies, so that both signs,
    every translation and equal keys all occur."""
    gid = draw(st.sampled_from(GALLERY_IDS))
    graded = draw(st.booleans())
    n = len(presentation(gid)[0].names)
    letter = st.integers(min_value=-n, max_value=n).filter(bool)
    words = draw(st.lists(st.lists(letter, max_size=60).map(tuple), min_size=1, max_size=6))
    for w in list(words):
        r = draw(st.integers(min_value=0, max_value=len(w)))
        words += [w[r:] + w[:r], invert_ints(w)]
        closed = w + invert_ints(draw(st.permutations(w)))
        words += [closed, closed[r:] + closed[:r]]
    return gid, graded, words


@settings(max_examples=60, deadline=None)
@given(word_batches())
def test_packed_keys_match_tuple_keys(case):
    """Each word's packed cache key decodes to the tuple key of the same
    vector, with the same frame and sign, so two words share a packed key
    exactly when they share a tuple key; the entry's bound and solution
    are the reference vector's."""
    gid, graded, words = case
    x, pi = projection(gid, graded)
    hb = _InvariantBound(x, pi)
    got = packed_entries(hb, words)
    refs = [reference_key(reference_walk(w, hb.pi)) for w in words]
    for (m, s, key, entry), ref in zip(got, refs):
        assert (m, s, decoded_key(hb, key)) == ref
        assert_entry_matches_reference(hb, x, ref[2], entry)
    for (a, ra), (b, rb) in combinations(zip(got, refs), 2):
        assert (a[2] == b[2]) == (ra[2] == rb[2])


@pytest.mark.parametrize("gid,area,keys,corpus", [
    ("thm1", 4, 135, "corpus_thm1_5"), ("thm2", 6, 918, "corpus_thm2_6"), ("eq1", 4, 38, "corpus_eq1_4"),
])
def test_scan_corpora_distinct_keys(request, gid, area, keys, corpus):
    """The scan corpora's boundary words fall into as many packed keys as
    tuple keys: the pinned counts."""
    x, pi = projection(gid)
    hb = _InvariantBound(x, pi)
    words = [d.boundary_word_ints() for d in request.getfixturevalue(corpus) if d.area <= area]
    for w in words:
        hb.bound(w)
    assert len(hb._cache) == keys
    assert len({reference_key(reference_walk(w, hb.pi))[2] for w in words}) == keys


def reference_moves(cur, hb, target=None):
    """``_moves`` as it read the tuple-keyed vectors: the same three paths
    over tuple prefix points, with the cache entry's frame, solution and
    form monomials unpacked, and the unpinned path's vectors packed only
    to ask ``vector_bound``."""
    starts = []
    base = reference_walk(cur, hb.pi, starts)
    forms = []
    for w, _terms, mono in hb.forms:
        if mono is not None:
            j, t, v = mono
            mono = (j, *unpack_point(t), v)
        forms.append((w, list(reference_walk(w, hb.pi).items()), mono))
    sol = None
    if hb.pinned:
        m, s, (h, packed) = hb._entry(hb._walk(cur))
        mx, my = unpack_point(m)
        if packed is not None:
            sol = [(j, *unpack_point(k), c) for j, k, c in _triples(packed)]
    if sol is not None and target == h - 1:
        at = {}
        for i, p in enumerate(starts):
            at.setdefault(p, []).append(i)
        on = {}
        for w, _terms, (j, tx, ty, v) in forms:
            on.setdefault((j, s * v), []).append((w, mx - tx, my - ty))
        for j, kx, ky, c in sol:
            for w, dx, dy in on.get((j, -1 if c > 0 else 1), ()):
                for i in at.get((kx + dx, ky + dy), ()):
                    yield target, i, w
        return
    if sol is not None:
        coeff = {(j, kx, ky): c for j, kx, ky, c in sol}
        for w, _terms, (j, tx, ty, v) in forms:
            tx, ty, v = tx - mx, ty - my, s * v
            for i, (sx, sy) in enumerate(starts):
                c = coeff.get((j, tx + sx, ty + sy), 0)
                score = h - abs(c) + abs(c + v)
                if target is None or score == target:
                    yield score, i, w
        return
    G = len(hb.pi)
    for w, terms, _mono in forms:
        scores = {}
        for i, start in enumerate(starts):
            if start not in scores:
                sx, sy = start
                fox = dict(base)
                for (kx, ky, g), v in terms:
                    k = (kx + sx, ky + sy, g)
                    fox[k] = fox.get(k, 0) + v
                packed = {pack_point(kx, ky) * G + g: v for (kx, ky, g), v in fox.items() if v}
                scores[start] = hb.vector_bound(packed)
            if target is None or scores[start] == target:
                yield scores[start], i, w


def certify_queries():
    """The benchmark's certify words at two seeds, with their galleries."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it loads
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    out = {}
    for seed in (1, 9001):
        for gid, w, _known, _fault in workloads.setup_certify(seed)["queries"]:
            out[gid, canonical_cyclic(w)] = None
    return list(out)


def test_moves_match_tuple_reference_on_certify_inputs():
    """On every certify word, with the model's projection and with every
    generator at the origin, and at every target the probe and A* ask,
    ``_moves`` yields the reference's ``(h, i, w)`` sequence, in order."""
    queries = certify_queries()
    assert len(queries) > 40
    for graded in (True, False):
        bounds = {gid: _InvariantBound(*projection(gid, graded)) for gid in GALLERY_IDS}
        for gid, cur in queries:
            hb = bounds[gid]
            h = hb.bound(cur)
            for target in (None, h) if h is None else (None, h - 1, h + 1):
                assert list(_moves(cur, hb, target)) == list(reference_moves(cur, hb, target)), (gid, cur, target)


@settings(max_examples=30, deadline=None)
@given(word_batches())
def test_huge_lattice_steps_raise_or_stay_exact(case):
    """A projection whose x steps are 2**40 times the gallery's: x is not
    limited by the packing, so each bound equals the gallery's (scaling x
    maps both systems' solutions one to one) and two words share a key
    exactly when their tuple keys agree, unless the int64 cache key
    overflows, which raises.  A projection whose y steps are that large
    cannot pack the relators' walks and raises on construction."""
    gid, _graded, words = case
    x, pi = projection(gid)
    big = _InvariantBound(x, tuple((px << 40, py) for px, py in pi))
    small = _InvariantBound(x, pi)
    big._cache = KeyRecorder()
    keys = []
    for w in words:
        try:
            h = big._entry(big._walk(w))[2][0]
        except OverflowError:
            continue
        assert h == small.bound(w), w
        keys.append((reference_key(reference_walk(w, big.pi))[2], big._cache.last))
    for (ra, a), (rb, b) in combinations(keys, 2):
        assert (a == b) == (ra == rb)
    if any(py for _px, py in pi):
        with pytest.raises(ValueError, match="packed lattice points"):
            _InvariantBound(x, tuple((px, py << 40) for px, py in pi))


def test_words_past_the_packing_range_raise():
    """A word whose y could leave the packed range raises before it is
    read; the longest allowed word is read, and the limit allows words far
    longer than any search builds."""
    x, pi = projection("torusT")
    hb = _InvariantBound(x, pi)
    n = hb._max_len
    assert 100_000 < n < POINT_HALF
    b1 = 2  # projects to (0, 1)
    up_and_down = (b1,) * (n // 2) + (-b1,) * (n - n // 2)
    assert hb.bound(up_and_down) == (0 if n % 2 == 0 else None)
    with pytest.raises(ValueError, match="word too long"):
        hb.bound(up_and_down + (b1,))
