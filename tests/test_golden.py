"""Byte-identity pins on CLI output, dart surgery and the area lower bound.

Each test hashes an exact output: the stdout of ``cli.main`` for a few
enumerations, figure emissions and presentation checks, the ``to_json()``
stream of larger enumerations, the orbits, feature witnesses and validation
reports of enumerated corpora, the concatenated JSON of the surgery results
over a small corpus, the piece listing of every gallery, the invariant
lower bound over a fixed corpus of words, every field of the word-move
oracle's answers on a fixed corpus, and the model layer's normal forms,
trivial subwords and vertex lifts.  A change to any byte (dart
numbering, orbit order, face indices, canonical order, relator text, a
bound's value, a probe's node count) fails here.  The outputs do not depend on
``PYTHONHASHSEED``.
"""

import hashlib
import random

import pytest

from vankampen.cli import main
from vankampen.dehn_props import pieces
from vankampen.diagram import (
    DiskDiagram,
    add_edge_path,
    attach_face,
    disk_pieces,
    find_cutcells,
    find_shells,
    find_spurs,
    relator_forms,
    remove_shell,
    remove_spur,
    validate,
    vertex_lift,
)
from vankampen.enumeration import (
    EnumerationConfig,
    _bound_for,
    area_oracle,
    canonical_cyclic,
    enumerate_diagrams,
)
from vankampen.gallery import GALLERY_IDS, presentation
from vankampen.group_models import normal_form, trivial_subword_witness
from vankampen.presentation import Word, invert_ints, presentation_complex, reduce_ints


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CLI_GOLDEN = [
    ("enumerate --gallery eq1 --max-area 3", 0,
     "48533a26e3a2568feaf967ba9fb3aa3a85a89ea2cbc326bb7fc049c8c01f5be9"),
    ("enumerate --gallery torusT --max-area 4", 0,
     "3ffc1223fbe58b1596b6323ea1ea4874c966b7f196b97faf7a8159f14eab1d4b"),
    ("gallery emit --id fig1 --n 2", 0,
     "e2a856407879f6a51cf011fa9b39b1c29c7c93c7010886f30197236562888aab"),
    ("gallery emit --id fig3 --n 2", 0,
     "733eb12ba7d0257bbc92932578d0e0bf436f2e096c34f774cd300255e4233cd5"),
    ("gallery emit --id fig1 --n 2 --format dot", 0,
     "6de5eade89aa48884fe658ffb9c4e7bb745283ee21cf58a42b16f35f51df8065"),
    ("gallery emit --id fig3 --n 2 --format dot", 0,
     "62ae3da62c82fde7d29c8926db9589efba74d82237b0ba4613a588eb145613e2"),
    ("pieces --gallery thm1 --json", 1,
     "0930aba6641783df93d951d8924c21a656ba641da311e560a91c641628b71aed"),
    ("embed --gallery thm2 --json", 1,
     "fe3d1962a3452f65f4d55aa12b78a44d43e076352cc0bce9814673720a3c638d"),
]


@pytest.mark.parametrize("argv,code,digest", CLI_GOLDEN, ids=[a for a, _c, _d in CLI_GOLDEN])
def test_cli_output_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    assert sha(capsys.readouterr().out) == digest


ENUMERATION_GOLDEN = [
    ("thm1", 4, "98b38906622c84606da9400561e1a3eece4a8071780d765fd47e542f9f6b9f2e"),
    ("thm2", 6, "ddbb5aded9b6dd2173eb7c0fc699a77cc032419cf3d46449a762f5dd38339c98"),
    ("eq2", 4, "69174c68fc7f7665e2107b6103e8cfdea392a51ae668c30b1b00dcdb87acb0e3"),
]


@pytest.mark.parametrize("gid,max_area,digest", ENUMERATION_GOLDEN,
                         ids=[f"{g}-{a}" for g, a, _d in ENUMERATION_GOLDEN])
def test_enumeration_stream_pinned(galleries, gid, max_area, digest):
    _p, _m, x = galleries[gid]
    stream = "\n".join(d.to_json() for d in enumerate_diagrams(x, EnumerationConfig(max_area=max_area)))
    assert sha(stream) == digest


def feature_outputs(x, max_area: int) -> str:
    """Vertex and face orbits, every feature detector and the validation
    report of each enumerated diagram."""
    lines = []
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=max_area)):
        lines.append(repr((d.vertices, d.faces)))
        lines.append(repr(find_spurs(d)))
        lines.append(repr(find_shells(d)))
        lines += [repr(find_cutcells(d, defn)) for defn in (1, 2, 3)]
        lines.append(repr(validate(d, x)))
    return "\n".join(lines)


FEATURE_GOLDEN = [
    ("thm1", 4, "129c8882d336ae9c42e1c163706eebe5c6a3e8cc0dc53c291db4bfc329778f6d"),
    ("eq1", 4, "4131d7694d444a0a9451c4ebad15bf9bc971033c654d8de5b7caf2058651d871"),
]


@pytest.mark.parametrize("gid,max_area,digest", FEATURE_GOLDEN,
                         ids=[f"{g}-{a}" for g, a, _d in FEATURE_GOLDEN])
def test_features_and_validation_pinned(galleries, gid, max_area, digest):
    _p, _m, x = galleries[gid]
    assert sha(feature_outputs(x, max_area)) == digest


def surgery_outputs(x) -> str:
    """Disk pieces, shell removals and spur removals over a corpus, plus
    the same after hanging a cell or an edge path at every corner."""
    hang = relator_forms(x)[0][0]
    parts = []
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=3)):
        parts += [p.to_json() for p in disk_pieces(d)]
        parts += [remove_shell(d, w).to_json() for w in find_shells(d)]
        for pos in range(d.perimeter):
            wedge = attach_face(d, pos, 0, hang)
            parts += [p.to_json() for p in disk_pieces(wedge)]
            tree = add_edge_path(d, pos, (1, 2))
            parts.append(tree.to_json())
            parts += [remove_spur(tree, s.darts[0]).to_json() for s in find_spurs(tree)]
    path = add_edge_path(DiskDiagram.single_vertex(x.alphabet), 0, (1, 2, -1))
    parts.append(path.to_json())
    parts += [remove_spur(path, s.darts[0]).to_json() for s in find_spurs(path)]
    return "\n".join(parts)


def test_surgery_outputs_pinned(galleries):
    _p, _m, x = galleries["thm2"]
    assert sha(surgery_outputs(x)) == (
        "2e4294d0583f166b9fcdbec1624a37872427823602715683b9c0c88c1abfc2c1"
    )


def test_pieces_pinned():
    listing = "\n".join(
        repr(piece) for gid in GALLERY_IDS for piece in pieces(presentation(gid)[0])
    )
    assert sha(listing) == (
        "782f09e9a0b504697f4ddc5e80651dc911cebe37bf8d2da0edbb0795efa48ce6"
    )


# enumerated boundary words up to this area feed the bound pin
BOUND_PIN_AREA = {"thm2": 4, "thm1": 3, "eq1": 3, "eq2": 3, "torusT": 5}


def bound_corpus(gid, x, rng):
    """The canonical boundary words of the enumerated disks, then seeded
    products of up to three relator forms conjugated by words of length at
    most 2, then seeded random reduced words of length at most 8, each
    alone and followed by the inverse of a shuffle of itself (a word with
    a closed projected path and exponent vector zero)."""
    words = sorted({canonical_cyclic(d.boundary_word_ints()) for d in
                    enumerate_diagrams(x, EnumerationConfig(max_area=BOUND_PIN_AREA[gid]))})
    forms = [w for w, _i, _o in relator_forms(x)]
    letters = [s * g for g in range(1, len(x.alphabet) + 1) for s in (1, -1)]
    for _ in range(40):
        word = []
        for _k in range(rng.randint(1, 3)):
            c = [rng.choice(letters) for _j in range(rng.randint(0, 2))]
            word += c + list(rng.choice(forms)) + list(invert_ints(c))
        words.append(reduce_ints(word))
    for _ in range(40):
        word = [rng.choice(letters) for _j in range(rng.randint(1, 8))]
        words.append(reduce_ints(word))
        words.append(reduce_ints(word + list(invert_ints(rng.sample(word, len(word))))))
    return words


def test_invariant_bound_pinned():
    rng = random.Random(8)
    lines = []
    for gid in GALLERY_IDS:
        p, m = presentation(gid)
        x = presentation_complex(p)
        for word in bound_corpus(gid, x, rng):
            for with_model in (True, False):
                bound = _bound_for(x, m if with_model else None).bound(word)
                lines.append(repr((gid, with_model, word, bound)))
    assert sha("\n".join(lines)) == (
        "5a32b6b7e72dab9e42fb46c0915628d623e5b034e7b792272d5b9741baee6149"
    )


def commutator_power(n: int) -> tuple:
    return (1,) * n + (2,) * n + (-1,) * n + (-2,) * n


def relator_bfs_corpus():
    """(gallery, word, bound, with model): the distinct canonical boundary
    words of the eq1 disks of area <= 3 and the torusT disks of area <= 5,
    each at its least enumerated area; thm2's [a^n, b^n] for n = 1..3 at
    bound 18; and eq1's free-factor commutator without a model, which A*
    refutes by exhausting its moves."""
    out = []
    for gid, area in (("eq1", 3), ("torusT", 5)):
        x = presentation_complex(presentation(gid)[0])
        least = {}
        for d in enumerate_diagrams(x, EnumerationConfig(max_area=area)):
            w = canonical_cyclic(d.boundary_word_ints())
            least[w] = min(least.get(w, d.area), d.area)
        out += [(gid, w, a, True) for w, a in sorted(least.items())]
    out += [("thm2", commutator_power(n), 18, True) for n in (1, 2, 3)]
    p, _m = presentation("eq1")
    out.append(("eq1", p.word("c2 c3 c2^-1 c3^-1").letters, 2, False))
    return out


def test_relator_bfs_pinned():
    """Every field of the word-move oracle's answers, so a change in the
    probe's node count or A*'s expansions fails here."""
    lines = []
    for gid, word, bound, with_model in relator_bfs_corpus():
        p, m = presentation(gid)
        x = presentation_complex(p)
        res = area_oracle(word, x, bound=bound, method="relator_bfs",
                          model=m if with_model else None)
        fields = (res.value, res.certified_exact, res.method, res.expanded, res.note)
        lines.append(repr((gid, word, bound, with_model, fields)))
    assert sha("\n".join(lines)) == (
        "5bd7d3fae4e6688c09650f6a1ff004e2d4fdef6cc03ce828b8c1a2ca5cf09b61"
    )


def test_model_layer_pinned(galleries):
    """The normal form of seeded random words of length at most 12 and the
    trivial subword of every relator over each gallery's model, then the
    lattice part of every vertex lift over the thm1 disks of area <= 3."""
    rng = random.Random(11)
    lines = []
    for gid in GALLERY_IDS:
        p, m = presentation(gid)
        letters = [s * g for g in range(1, len(p.names) + 1) for s in (1, -1)]
        for _ in range(60):
            w = Word([rng.choice(letters) for _j in range(rng.randint(0, 12))], p.names)
            lines.append(repr((gid, w, normal_form(w, m))))
        lines += [repr((gid, r, trivial_subword_witness(r, m))) for r in p.relators]
    _p, m, x = galleries["thm1"]
    for d in enumerate_diagrams(x, EnumerationConfig(max_area=3)):
        lift = vertex_lift(d, m)
        lines.append(repr([lift[v].lattice_part() for v in sorted(lift)]))
    assert sha("\n".join(lines)) == (
        "99d04e387f910ecab7a9102305a69abe2d34dfe674364ca5dd7105835bd15a48"
    )
