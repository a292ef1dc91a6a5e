"""Self-test of the benchmark's output checks.

Runs each workload once, confirms that its checks accept the real
outputs, then feeds each check deliberately wrong outputs (a dropped
diagram, an altered area, a value for a nontrivial word, ...) and
confirms that the check rejects every one.

    python3 perfbench/selftest.py        # exit code 0 when every case holds
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from vankampen.diagram import DiskDiagram, find_cutcells, find_shells  # noqa: E402
from vankampen.enumeration import AreaResult  # noqa: E402
from vankampen.gallery import CornerWitness, figure_diagram  # noqa: E402

SEED = 1


def _drop_line(text: str, index: int) -> str:
    """Remove one diagram line and restate the summary to match, so only
    the independent checks can notice."""
    lines = text.splitlines()
    lines.pop(index)
    counts: dict = {}
    for line in lines[:-1]:
        a = str(DiskDiagram.from_json(line).area)
        counts[a] = counts.get(a, 0) + 1
    lines[-1] = json.dumps({"summary": counts})
    return "\n".join(lines) + "\n"


def enumerate_cases(inp, out):
    key = "thm2:5"
    rc, text = out[key]
    lines = text.splitlines()
    yield "clean", inp, out, True

    yield "dropped diagram", inp, {**out, key: (rc, _drop_line(text, 5))}, False

    fig_index = next(
        i for i, line in enumerate(lines[:-1])
        if DiskDiagram.from_json(line).canonical_code()
        == figure_diagram(1, 1).canonical_code()
    )
    dropped = _drop_line(text, fig_index)
    counts = json.loads(dropped.splitlines()[-1])["summary"]
    lenient = {**inp, "reference": {**inp["reference"], key: counts}}
    yield "figure 1 grid missing (reference restated)", lenient, {**out, key: (rc, dropped)}, False

    dup = list(lines)
    dup[6] = dup[5]
    yield "duplicate diagram", inp, {**out, key: (rc, "\n".join(dup) + "\n")}, False

    summary = json.loads(lines[-1])
    summary["summary"]["5"] += 1
    yield "altered per-area count", inp, {**out, key: (rc, "\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")}, False

    bad = list(lines)
    bad[10] = bad[10].replace('"a^-1"', '"c^-1"', 1)
    yield "relabelled edge", inp, {**out, key: (rc, "\n".join(bad) + "\n")}, False

    yield "nonzero exit code", inp, {**out, key: (1, text)}, False


def scan_cases(inp, out):
    reports = out["reports"]
    yield "clean", inp, out, True

    shelled = next(d for d in inp["thm1"] if d.area >= 2 and find_shells(d))
    rep = reports[("thm1", "gdehn3")]
    fake = replace(rep, violations=rep.violations + ((shelled, "fake"),))
    yield "Theorem 1 violation", inp, {**out, "reports": {**reports, ("thm1", "gdehn3"): fake}}, False

    rep = reports[("thm2", "gdehn1")]
    unknown = replace(rep, unknowns=(inp["thm2"][0],))
    yield "Theorem 2 unknown", inp, {**out, "reports": {**reports, ("thm2", "gdehn1"): unknown}}, False

    rep = reports[("eq1", "gdehn2")]
    fewer = replace(rep, violations=rep.violations[1:])
    yield "eq1 gdehn2 drops a violation", inp, {**out, "reports": {**reports, ("eq1", "gdehn2"): fewer}}, False

    no_square = {
        key: replace(reports[key], violations=tuple(
            (d, r) for d, r in reports[key].violations if d.area != 2))
        for key in (("eq1", "gdehn1"), ("eq1", "gdehn2"))
    }
    yield "eq1 square missing", inp, {**out, "reports": {**reports, **no_square}}, False

    rep = reports[("thm1", "gdehn1")]
    yield "scanned count altered", inp, {**out, "reports": {**reports, ("thm1", "gdehn1"): replace(rep, scanned=rep.scanned - 1)}}, False

    corner = list(out["corner"])
    for i, (d, w) in enumerate(corner):
        marked = {s.face for s in find_shells(d)}
        for defn in (2, 3):
            marked |= {c.face for c in find_cutcells(d, defn)}
        free = [fi for fi in d.inner_face_indices if fi not in marked]
        if free:
            corner[i] = (d, CornerWitness("shell", free[0]))
            break
    yield "corner witness at a plain face", inp, {**out, "corner": corner}, False

    yield "corner classification dropped", inp, {**out, "corner": out["corner"][1:]}, False


def certify_cases(inp, out):
    answers = out["answers"]
    yield "clean", inp, out, True

    bfs, ds = answers[0]
    bumped = [(replace(bfs, value=bfs.value + 1), ds)] + answers[1:]
    yield "altered area", inp, {**out, "answers": bumped}, False

    known = inp["queries"][0][2]
    p = workloads.galleries("eq1")[0]
    nontrivial = p.word("c2 c3 c2^-1 c3^-1").letters
    swapped = {**inp, "queries": [("eq1", nontrivial, known, False)] + inp["queries"][1:]}
    yield "nontrivial input word", swapped, out, False

    uncert = [(replace(bfs, certified_exact=False), ds)] + answers[1:]
    yield "uncertified answer", inp, {**out, "answers": uncert}, False

    table = list(out["table"])
    table[2] = replace(table[2], area=replace(table[2].area, value=17))
    yield "Area([a^3,b^3]) != 18", inp, {**out, "table": table}, False

    yield "diagram search Area([a,b]) != 2", inp, {**out, "table_ds": replace(out["table_ds"], value=3)}, False

    yield "answer missing", inp, {**out, "answers": answers[:-2] + answers[-1:]}, False


def refute_cases(inp, out):
    answers = out["answers"]
    yield "clean", inp, out, True

    valued = [AreaResult(2, True, "relator_bfs")] + answers[1:]
    yield "value for a nontrivial word", inp, {**out, "answers": valued}, False

    uncert = [replace(answers[0], certified_exact=False)] + answers[1:]
    yield "uncertified refutation", inp, {**out, "answers": uncert}, False

    p = workloads.galleries("eq1")[0]
    trivial = p.relators[0].letters
    words = [("eq1", trivial, 3)] + inp["words"][1:]
    yield "trivial input word", {**inp, "words": words}, out, False

    seen = p.word("c2 c3 c2^-1").letters
    words = [("eq1", seen, 3)] + inp["words"][1:]
    yield "input word with a nonzero exponent sum", {**inp, "words": words}, out, False


CASES = {
    "enumerate": enumerate_cases,
    "scan": scan_cases,
    "certify": certify_cases,
    "refute": refute_cases,
}


def main() -> int:
    bad = 0
    for name, cases in CASES.items():
        wl = workloads.WORKLOADS[name]
        inp = wl.setup(SEED)
        out = wl.run(inp)
        for label, case_inp, case_out, should_pass in cases(inp, out):
            verdict = wl.check(case_inp, case_out)
            passed = not verdict.errors
            ok = passed == should_pass
            bad += not ok
            outcome = "accepted" if passed else f"rejected: {verdict.errors[0]}"
            print(f"{'ok  ' if ok else 'FAIL'} {name:<9} {label:<45} {outcome[:110]}")
    print("all checks behave" if not bad else f"{bad} cases misjudged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
