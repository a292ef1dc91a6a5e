import json
import subprocess
import sys
from pathlib import Path

import pytest

from vankampen import cli
from vankampen.cli import main
from vankampen.enumeration import AreaResult
from vankampen.presentation import presentation_file_text
from vankampen.group_models import model_file_text
from vankampen.gallery import figure_diagram, presentation

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_thm1_gdehn3_small_bound_holds(capsys):
    code, out, _ = run_cli(capsys, "check", "--gallery", "thm1",
                           "--property", "gdehn3", "--max-area", "3")
    assert code == 0
    assert "HOLDS" in out


def test_check_eq1_gdehn2_reports_violations(capsys):
    code, out, _ = run_cli(capsys, "check", "--gallery", "eq1",
                           "--property", "gdehn2", "--max-area", "2", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["holds"] is False
    assert len(data["violations"]) == 1
    assert data["violations"][0]["area"] == 2


def test_check_usage_errors(capsys):
    code, _out, err = run_cli(capsys, "check", "--property", "dehn", "--max-area", "2")
    assert code == 2
    code, _out, err = run_cli(capsys, "check", "--gallery", "nope",
                              "--property", "dehn", "--max-area", "2")
    assert code == 2


def test_enumerate_stream_and_summary(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--gallery", "thm2", "--max-area", "2")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary == {"1": "2", "2": "3"} or summary == {"1": 2, "2": 3}
    from vankampen.diagram import DiskDiagram

    diagrams = [DiskDiagram.from_json(line) for line in lines[:-1]]
    assert len(diagrams) == 5


def test_enumerate_resource_cap_exit_code(capsys):
    code, _out, err = run_cli(capsys, "enumerate", "--gallery", "thm2",
                              "--max-area", "5", "--max-candidates", "40")
    assert code == 3
    # a zero cap is a cap: the seeds are emitted, and the first gluing exceeds it
    code, out, err = run_cli(capsys, "enumerate", "--gallery", "thm2",
                             "--max-area", "2", "--max-candidates", "0")
    assert code == 3 and len(out.splitlines()) == 2
    assert "exceeded 0 candidate gluings" in err


def test_area_command(capsys):
    code, out, _ = run_cli(capsys, "area", "--gallery", "thm2",
                           "--word", "a b a^-1 b^-1", "--bound", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2 and data["certified_exact"]


def test_area_uncertified_value_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "area_oracle", lambda *a, **k: AreaResult(3, False, "relator_bfs"))
    code, out, _ = run_cli(capsys, "area", "--gallery", "thm2",
                           "--word", "a b a^-1 b^-1", "--bound", "4")
    assert code == 3
    assert "Area(a b a^-1 b^-1) = 3 [uncertified]" in out


def test_table_command(capsys):
    code, out, _ = run_cli(capsys, "table", "--gallery", "thm2",
                           "--n-max", "2", "--bound", "8", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["n"], r["area"]) for r in rows] == [(1, 2), (2, 8)]


@pytest.mark.parametrize("gid,areas", [("thm1", [2, 8]), ("eq2", [4, 16])])
def test_table_commutes_the_lattice_basis_words(capsys, gid, areas):
    """Over thm1 and eq2 the first two generators do not commute, so the
    table takes the gallery's lattice-basis words a1 a2 and b1 b2."""
    code, out, _ = run_cli(capsys, "table", "--gallery", gid,
                           "--n-max", "2", "--bound", "16")
    assert code == 0
    assert out.splitlines() == [
        "commutator-power area table over [a1 a2,b1 b2]:",
        f"  n=1  |w|=8  Area={areas[0]}",
        f"  n=2  |w|=16  Area={areas[1]}",
    ]


def test_fbound_command(capsys):
    code, out, _ = run_cli(capsys, "fbound", "--c", "5", "--n", "30", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values"][0] == 0 and data["values"][1] == 1
    assert data["slope"] == data["K"] + 1


def test_gallery_list_and_emit(capsys):
    code, out, _ = run_cli(capsys, "gallery", "list")
    assert code == 0
    for gid in ("thm1", "thm2", "eq1", "eq2", "torusT"):
        assert gid in out
    code, out, _ = run_cli(capsys, "gallery", "emit", "--id", "fig1", "--n", "2")
    assert code == 0
    from vankampen.diagram import DiskDiagram
    from vankampen.gallery import figure_diagram

    assert DiskDiagram.from_json(out) == figure_diagram(1, 2)


def test_export_dot_annotates_cutcells(capsys, tmp_path):
    out_path = tmp_path / "fig1.dot"
    code, _out, _ = run_cli(capsys, "export", "--id", "fig1", "--n", "2",
                            "--format", "dot", "-o", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert "digraph" in dot
    assert dot.count("cutcell def 1") == 4  # the four pentagons


def test_export_roundtrip_json(capsys, tmp_path):
    path = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "export", "--id", "fig3", "--n", "2",
                           "--format", "json", "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "export", "--input", str(path), "--format", "json")
    assert code == 0
    from vankampen.diagram import DiskDiagram
    from vankampen.gallery import figure_diagram

    assert DiskDiagram.from_json(out) == figure_diagram(3, 2)


def test_export_id_and_input_exits_2(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(figure_diagram(1, 2).to_json())
    code, out, err = run_cli(capsys, "export", "--id", "fig1", "--input", str(path))
    assert code == 2 and out == ""
    assert "error: give either --id or --input, not both" in err


def test_gallery_with_model_exits_2(capsys, tmp_path):
    path = tmp_path / "thm2.model"
    path.write_text(model_file_text(presentation("thm2")[1]))
    code, out, err = run_cli(capsys, "area", "--gallery", "thm2", "--model", str(path),
                             "--word", "a b A B", "--bound", "3")
    assert code == 2 and out == ""
    assert "error: give --model only with --presentation" in err


def test_pieces_command_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "pieces", "--gallery", "eq2", "--json")
    assert code == 0
    assert json.loads(out)["has_big_pieces"] is False
    code, out, _ = run_cli(capsys, "pieces", "--gallery", "thm1", "--json")
    assert code == 1
    data = json.loads(out)
    assert any(b["word"] == "c1c2c3" for b in data["big_pieces"])


def test_embed_command_exit_codes(capsys):
    code, _out, _ = run_cli(capsys, "embed", "--gallery", "thm1")
    assert code == 0
    code, out, _ = run_cli(capsys, "embed", "--gallery", "thm2", "--json")
    assert code == 1
    assert json.loads(out)["all_embed"] is False


def test_check_via_property_alias(capsys):
    code, _out, _ = run_cli(capsys, "check", "--gallery", "eq2", "--property", "pieces")
    assert code == 0
    code, _out, _ = run_cli(capsys, "check", "--gallery", "thm2", "--property", "embed")
    assert code == 1


def test_presentation_and_model_files(capsys, tmp_path):
    p, m = presentation("eq1")
    pres_path = tmp_path / "eq1.pres"
    model_path = tmp_path / "eq1.model"
    pres_path.write_text(presentation_file_text(p))
    model_path.write_text(model_file_text(m))
    code, out, _ = run_cli(capsys, "area", "--presentation", str(pres_path),
                           "--model", str(model_path),
                           "--word", "a1 b1 a1^-1 b1^-1", "--bound", "4", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2
    code, out, _ = run_cli(capsys, "embed", "--presentation", str(pres_path),
                           "--model", str(model_path))
    assert code == 0


# a presentation whose own invariant bound is not pinned
UNPINNED = "gens: a b\nrel: a a b b A A B B\nrel: a a a b b b A A A B B B\n"


def test_area_store_cap_exits_3(capsys, tmp_path, monkeypatch):
    from vankampen import enumeration

    pres_path = tmp_path / "unpinned.pres"
    pres_path.write_text(UNPINNED)
    monkeypatch.setattr(enumeration, "MAX_STORED", 1000)
    code, out, _ = run_cli(capsys, "area", "--presentation", str(pres_path),
                           "--word", "a b A B", "--bound", "4",
                           "--method", "relator_bfs")
    assert code == 3
    assert "[uncertified]  (store cap hit)" in out


@pytest.mark.slow
def test_area_store_cap_exits_3_at_the_default_cap(capsys, tmp_path):
    """At the default ``MAX_STORED`` the same query exits 3 too: A* counts
    its bound cache lookups, which grow far faster than its words over this
    bound, so the cache grows by at most the cap and one expansion's
    scores."""
    from vankampen import enumeration
    from vankampen.presentation import parse_presentation_file, presentation_complex

    pres_path = tmp_path / "unpinned.pres"
    pres_path.write_text(UNPINNED)
    hb = enumeration._bound_for(presentation_complex(parse_presentation_file(UNPINNED)), None)
    before = len(hb._cache)
    code, out, _ = run_cli(capsys, "area", "--presentation", str(pres_path),
                           "--word", "a b A B", "--bound", "4",
                           "--method", "relator_bfs")
    assert code == 3
    assert "[uncertified]  (store cap hit)" in out
    # 40 forms, at most 52 positions each in a word of bound 4
    assert len(hb._cache) - before <= enumeration.MAX_STORED + 40 * 52


def test_area_disk_stream_cap_exits_3(capsys, tmp_path, monkeypatch):
    """``auto``'s capped A* gives up on [a, b] at bound 4, and the
    enumeration under ``diagram_search`` stops at ``MAX_CANDIDATES``
    gluings, from a fresh stream, instead of exhausting memory."""
    from functools import lru_cache

    from vankampen import enumeration

    pres_path = tmp_path / "unpinned.pres"
    pres_path.write_text(UNPINNED)
    monkeypatch.setattr(enumeration, "MAX_CANDIDATES", 1000)
    monkeypatch.setattr(enumeration, "_disk_areas", lru_cache(maxsize=None)(enumeration._DiskAreas))
    code, out, err = run_cli(capsys, "area", "--presentation", str(pres_path),
                             "--word", "a b A B", "--bound", "4")
    assert (code, out) == (3, "")
    assert err == "resource cap: enumeration exceeded 1000 candidate gluings\n"


def check_without_a_model(capsys, tmp_path, gid, prop, max_area):
    """``check --presentation`` over the gallery's file, without its model,
    prints the ``--gallery`` run's JSON with no unknowns: the complex's own
    projection certifies each minimal diagram as the model's does."""
    p, _m = presentation(gid)
    pres_path = tmp_path / f"{gid}.pres"
    pres_path.write_text(presentation_file_text(p))
    scan = ("--property", prop, "--max-area", str(max_area), "--json")
    code, out, _ = run_cli(capsys, "check", "--presentation", str(pres_path), *scan)
    assert (code, out) == run_cli(capsys, "check", "--gallery", gid, *scan)[:2]
    assert json.loads(out)["unknowns"] == 0


def test_check_without_a_model_prints_the_gallery_json(capsys, tmp_path):
    for gid, prop, max_area in (
        ("thm1", "gdehn3", 4), ("thm2", "gdehn1", 6), ("eq1", "gdehn1", 4),
        ("eq1", "gdehn2", 4), ("eq2", "gdehn3", 4), ("torusT", "dehn", 5),
    ):
        check_without_a_model(capsys, tmp_path, gid, prop, max_area)


@pytest.mark.slow
@pytest.mark.parametrize("gid,prop,max_area", [("thm1", "gdehn3", 5), ("thm2", "gdehn1", 8)])
def test_check_without_a_model_at_the_acceptance_sizes(capsys, tmp_path, gid, prop, max_area):
    check_without_a_model(capsys, tmp_path, gid, prop, max_area)


def test_check_with_unknowns_exits_3(capsys, monkeypatch):
    from vankampen import dehn_props

    monkeypatch.setattr(dehn_props, "is_minimal", lambda *a, **k: None)
    code, out, _ = run_cli(capsys, "check", "--gallery", "thm2",
                           "--property", "dehn", "--max-area", "2")
    assert code == 3
    assert "scanned 0 certified-minimal diagrams (0 single-cell exemptions, 5 unknown)" in out


def test_presentation_without_relators_has_no_diagrams(capsys, tmp_path):
    # no 2-cell, so no reduced disk of positive area: the enumeration is
    # empty and a scan holds vacuously
    path = tmp_path / "free.pres"
    path.write_text("gens: a b\n")
    code, out, _ = run_cli(capsys, "enumerate", "--presentation", str(path), "--max-area", "2")
    assert code == 0
    assert [json.loads(line) for line in out.strip().splitlines()] == [{"summary": {}}]
    code, out, _ = run_cli(capsys, "check", "--presentation", str(path),
                           "--property", "dehn", "--max-area", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True and data["scanned"] == 0 and data["violations"] == []


def test_presentation_file_named_like_a_gallery_id(capsys, tmp_path, monkeypatch):
    (tmp_path / "thm1").write_text("gens: a b\nrel: a b A B\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "area", "--presentation", "thm1",
                           "--word", "a b A B", "--bound", "2", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_bad_usage_exit_2(capsys):
    assert main(["area", "--gallery", "thm2", "--word", "zz", "--bound", "2"]) == 2
    assert main(["nonsense"]) == 2


def test_module_entrypoint_runs(bare_env):
    proc = subprocess.run(
        [sys.executable, "-m", "vankampen.cli", "fbound", "--c", "1", "--n", "5"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=bare_env,
    )
    assert proc.returncode == 0
    assert "f(0..5)" in proc.stdout


@pytest.mark.parametrize("argv,code", [
    ("enumerate --gallery eq1 --max-area 4", 0),
    ("check --gallery eq1 --property gdehn2 --max-area 4 --json", 1),
])
def test_output_does_not_depend_on_the_hash_seed(bare_env, argv, code):
    # bytes codes hash under PYTHONHASHSEED's salt, as the alphabet's
    # strings do; output must never follow a set's iteration order
    outs = [
        subprocess.run(
            [sys.executable, "-m", "vankampen.cli", *argv.split()],
            capture_output=True,
            cwd=REPO_ROOT,
            env=dict(bare_env, PYTHONHASHSEED=seed),
        )
        for seed in ("1", "2")
    ]
    assert outs[0].stdout and outs[0].stdout == outs[1].stdout
    assert [o.returncode for o in outs] == [code, code]


def _fig1_json(**edits) -> str:
    """fig1 at n = 1 as JSON, each named field replaced by what its edit
    returns for the old value."""
    data = json.loads(figure_diagram(1, 1).to_json())
    for field, edit in edits.items():
        data[field] = edit(data[field])
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    "not json",
    "{}",
    _fig1_json(sigma=lambda s: [5] + s[1:]),
    # -1 in place of the last dart, 9
    _fig1_json(sigma=lambda s: s[:8] + [-1] + s[9:]),
    _fig1_json(outer_face_dart=lambda _o: -1),
    _fig1_json(labels=lambda labels: labels + labels[:1]),
], ids=["not-json", "no-fields", "sigma-not-a-permutation", "sigma-negative", "outer-negative",
        "labels-too-many"])
def test_export_malformed_input_exits_2(capsys, tmp_path, text):
    path = tmp_path / "d.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "export", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("edit", [
    ("abelian_rank 2", "abelian_rank x"),
    ("abelian_rank 2", "abelian_rank"),
    ("free_rank 2", "free_rank 2\nimage zz = e1"),
    ("free_rank 2", "free_rank 2\nimage a1 = e1"),
], ids=["rank-not-a-number", "rank-missing", "unknown-generator", "generator-twice"])
def test_malformed_model_file_exits_2(capsys, tmp_path, edit):
    p, m = presentation("eq1")
    pres_path = tmp_path / "eq1.pres"
    model_path = tmp_path / "eq1.model"
    pres_path.write_text(presentation_file_text(p))
    model_path.write_text(model_file_text(m).replace(*edit))
    code, out, err = run_cli(capsys, "embed", "--presentation", str(pres_path),
                             "--model", str(model_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_presentation_directory_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "area", "--presentation", str(tmp_path),
                             "--word", "a", "--bound", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "enumerate --gallery thm2 --max-area 0",
    "enumerate --gallery thm2 --max-area 3 --max-candidates -1",
    "enumerate --gallery thm2 --max-area 3 --max-perimeter -1",
    "check --gallery thm2 --property dehn --max-area 0",
    "fbound --c 0 --n 5",
    "fbound --c 3 --n 2",
    "gallery emit --id fig1 --n 0",
    "export --id fig1 --n 0",
])
def test_out_of_range_number_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ")
