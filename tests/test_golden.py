"""Byte-identity pins on CLI output and dart surgery.

Each test hashes an exact output: the stdout of ``cli.main`` for a few
enumerations, figure emissions and presentation checks, the ``to_json()``
stream of larger enumerations, the orbits, feature witnesses and validation
reports of enumerated corpora, the concatenated JSON of the surgery results
over a small corpus, and the piece listing of every gallery.  A change to
any byte (dart numbering, orbit order, face indices, canonical order,
relator text) fails here.  The outputs do not depend on ``PYTHONHASHSEED``.
"""

import hashlib

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
)
from vankampen.enumeration import EnumerationConfig, enumerate_diagrams
from vankampen.gallery import GALLERY_IDS, presentation


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
