"""Command-line interface.

Exit codes: 0 success / property holds; 1 property violated; 2 usage
error; 3 resource cap exceeded or uncertified result.  All algorithms are
deterministic, so identical flags give identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from .presentation import (
    CyclicWord,
    Presentation,
    invert_ints,
    presentation_complex,
    parse_presentation_file,
)
from .group_models import FreeProductModel, parse_model_file
from .diagram import (
    DiskDiagram,
    boundary_path,
    find_cutcells,
    find_shells,
    find_spurs,
)
from .enumeration import (
    EnumerationConfig,
    ResourceCapError,
    area_oracle,
    dehn_table,
    enumerate_diagrams,
)
from .dehn_props import (
    PropertyReport,
    big_pieces,
    check_cells_embed,
    check_dehn,
    check_generalized_dehn,
    f_values,
    pieces,
    verify_proposition_bound,
)
from . import gallery


class UsageError(Exception):
    pass


def _load_presentation(args) -> Tuple[Presentation, Optional[FreeProductModel]]:
    gid = getattr(args, "gallery", None)
    path = getattr(args, "presentation", None)
    if gid and path:
        raise UsageError("give either --gallery or --presentation, not both")
    if gid:
        if getattr(args, "model", None):
            raise UsageError("give --model only with --presentation")
        if gid in gallery.GALLERY_IDS:
            return gallery.presentation(gid)
        raise UsageError(f"unknown gallery id {gid!r} (have {', '.join(gallery.GALLERY_IDS)})")
    if path:
        with open(path) as fh:
            p = parse_presentation_file(fh.read())
        m = None
        model_path = getattr(args, "model", None)
        if model_path:
            with open(model_path) as fh:
                m = parse_model_file(fh.read(), p)
        return p, m
    raise UsageError("need --gallery <id> or --presentation <file>")


def _emit(data, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _report_payload(rep: PropertyReport) -> dict:
    return {
        "property": rep.property_name,
        "bound": rep.bound,
        "scanned": rep.scanned,
        "holds": rep.holds,
        "violations": [
            {
                "reason": reason,
                "area": d.area,
                "boundary": boundary_path(d).word.text(),
            }
            for d, reason in rep.violations
        ],
        "exemptions": len(rep.exemptions),
        "unknowns": len(rep.unknowns),
    }


def cmd_check(args) -> int:
    prop = args.property
    if prop == "pieces":
        return cmd_pieces(args)
    if prop == "embed":
        return cmd_embed(args)
    p, m = _load_presentation(args)
    x = presentation_complex(p)
    bound = args.max_area
    if bound is None:
        raise UsageError("--max-area is required for diagram scans")
    if prop == "dehn":
        rep = check_dehn(x, bound, model=m)
    elif prop in ("gdehn1", "gdehn2", "gdehn3"):
        rep = check_generalized_dehn(x, int(prop[-1]), bound, model=m)
    else:
        raise UsageError(f"unknown property {prop!r}")
    payload = _report_payload(rep)
    lines = [
        f"property {rep.property_name} over area <= {bound}: "
        + ("HOLDS" if rep.holds else "VIOLATED"),
        f"scanned {rep.scanned} certified-minimal diagrams "
        f"({len(rep.exemptions)} single-cell exemptions, {len(rep.unknowns)} unknown)",
    ]
    for v in payload["violations"]:
        lines.append(f"  violation: area {v['area']} boundary {v['boundary']}")
    _emit(payload, args.json, lines)
    if rep.unknowns:
        return 3
    return 0 if rep.holds else 1


def cmd_enumerate(args) -> int:
    p, _m = _load_presentation(args)
    x = presentation_complex(p)
    cfg = EnumerationConfig(
        max_area=args.max_area,
        max_perimeter=args.max_perimeter,
        max_candidates=args.max_candidates,
    )
    counts = {}
    for d in enumerate_diagrams(x, cfg):
        counts[d.area] = counts.get(d.area, 0) + 1
        print(d.to_json())
    print(json.dumps({"summary": {str(k): v for k, v in sorted(counts.items())}}))
    return 0


def cmd_area(args) -> int:
    p, m = _load_presentation(args)
    x = presentation_complex(p)
    w = p.word(args.word)
    res = area_oracle(w, x, bound=args.bound, method=args.method, model=m)
    payload = {
        "word": args.word,
        "value": res.value,
        "certified_exact": res.certified_exact,
        "method": res.method,
        "note": res.note,
    }
    _emit(
        payload,
        args.json,
        [
            f"Area({args.word}) = {res.value}"
            + (" [certified]" if res.certified_exact else " [uncertified]")
            + (f"  ({res.note})" if res.note else "")
        ],
    )
    return 0 if res.certified_exact else 3


def cmd_table(args) -> int:
    p, m = _load_presentation(args)
    x = presentation_complex(p)
    names = p.names
    if len(names) < 2:
        raise UsageError("the commutator family needs two generators")
    # a gallery's lattice-basis words, or a file's first two generators
    basis = gallery.LATTICE_BASIS[args.gallery] if args.gallery else names[:2]
    u, v = (p.word(t).letters for t in basis)

    def family(n: int) -> CyclicWord:
        letters = u * n + v * n + invert_ints(u) * n + invert_ints(v) * n
        return CyclicWord(letters, names)

    ns = range(args.n_min, args.n_max + 1)
    rows = dehn_table(x, family, ns, bound=args.bound, model=m)
    payload = [
        {
            "n": r.n,
            "length": r.word_length,
            "area": r.area.value,
            "certified": r.area.certified_exact,
        }
        for r in rows
    ]
    lines = [f"commutator-power area table over [{basis[0]},{basis[1]}]:"]
    for r in rows:
        flag = "" if r.area.certified_exact else "  (uncertified)"
        lines.append(f"  n={r.n}  |w|={r.word_length}  Area={r.area.value}{flag}")
    _emit(payload, args.json, lines)
    if any(not r.area.certified_exact for r in rows):
        return 3
    return 0


def cmd_fbound(args) -> int:
    rep = verify_proposition_bound(args.c, args.n)
    seq = f_values(args.c, args.n)
    payload = {
        "c": args.c,
        "N": args.n,
        "values": list(seq.values),
        "increments_nondecreasing": rep.increments_nondecreasing,
        "tail_arithmetic_from": args.c + 2,
        "slope": rep.slope,
        "K": rep.K,
    }
    _emit(
        payload,
        args.json,
        [
            f"f(0..{args.n}) for c={args.c}: {list(seq.values)}",
            f"increments nondecreasing: {rep.increments_nondecreasing}",
            f"arithmetic tail from n={args.c + 2}: slope {rep.slope} = 1 + K with K = {rep.K}",
        ],
    )
    return 0 if rep.ok else 1


def _gallery_diagram(args) -> DiskDiagram:
    gid = args.id
    if gid in ("fig1", "fig3"):
        return gallery.figure_diagram(1 if gid == "fig1" else 3, args.n)
    raise UsageError(f"unknown diagram id {gid!r} (have fig1, fig3)")


def cmd_gallery(args) -> int:
    if args.action == "list":
        for gid in gallery.GALLERY_IDS:
            p, m = gallery.presentation(gid)
            rels = ", ".join(r.text() for r in p.relators)
            print(f"{gid}: <{' '.join(p.names)} | {rels}>")
        print("diagram families: fig1 (n x n commutator grid over thm2), "
              "fig3 (n x n split-square grid over eq1)")
        return 0
    if args.action == "emit":
        d = _gallery_diagram(args)
        if args.format == "json":
            print(d.to_json())
        else:
            print(_dot_with_features(d), end="")
        return 0
    raise UsageError("gallery action must be list or emit")


def _dot_with_features(d: DiskDiagram) -> str:
    features = list(find_spurs(d)) + list(find_shells(d))
    for defn in (1, 2, 3):
        features.extend(find_cutcells(d, defn))
    return d.to_dot(features)


def cmd_export(args) -> int:
    if args.id and args.input:
        raise UsageError("give either --id or --input, not both")
    if args.id:
        d = _gallery_diagram(args)
    elif args.input:
        with open(args.input) as fh:
            d = DiskDiagram.from_json(fh.read())
    else:
        raise UsageError("need --id or --input")
    payload = d.to_json() if args.format == "json" else _dot_with_features(d)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")
    return 0


def cmd_pieces(args) -> int:
    p, _m = _load_presentation(args)
    all_pieces = pieces(p)
    big = big_pieces(p)
    payload = {
        "pieces": len(all_pieces),
        "big_pieces": [
            {
                "word": piece.word.text(),
                "length": len(piece.word),
                "relators": [piece.site_a.relator_index, piece.site_b.relator_index],
            }
            for piece in big
        ],
        "has_big_pieces": bool(big),
    }
    lines = [f"{len(all_pieces)} pieces; big pieces: {len(big)}"]
    for piece in big:
        lines.append(
            f"  big piece {piece.word.text()!r} between relators "
            f"{piece.site_a.relator_index} and {piece.site_b.relator_index}"
        )
    _emit(payload, args.json, lines)
    return 1 if big else 0


def cmd_embed(args) -> int:
    p, m = _load_presentation(args)
    if m is None:
        raise UsageError("embedding checks need a model (--gallery id or --model file)")
    rep = check_cells_embed(p, m)
    payload = {
        "relators": [r.text() for r in p.relators],
        "all_embed": rep.holds,
        "failures": [reason for _r, reason in rep.violations],
    }
    lines = [
        ("all 2-cells embed in the universal cover" if rep.holds else "embedding fails:")
    ] + [f"  {reason}" for _r, reason in rep.violations]
    _emit(payload, args.json, lines)
    return 0 if rep.holds else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vankampen",
        description="disk diagrams, feature detectors, and Dehn-property scans",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_source(sp, model_flag=True):
        sp.add_argument("--gallery", help="gallery presentation id")
        sp.add_argument("--presentation", help="presentation file")
        if model_flag:
            sp.add_argument("--model", help="free-product model file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("check", help="scan a property over enumerated diagrams")
    add_source(sp)
    sp.add_argument("--property", required=True,
                    choices=["dehn", "gdehn1", "gdehn2", "gdehn3", "pieces", "embed"])
    sp.add_argument("--max-area", type=int)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("enumerate", help="stream reduced disk diagrams as JSON lines")
    add_source(sp, model_flag=False)
    sp.add_argument("--max-area", type=int, required=True)
    sp.add_argument("--max-perimeter", type=int)
    sp.add_argument("--max-candidates", type=int)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("area", help="minimal filling area of a word")
    add_source(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--method", default="auto",
                    choices=["auto", "relator_bfs", "diagram_search"])
    sp.set_defaults(func=cmd_area)

    sp = sub.add_parser("table", help="area table for the commutator-power family")
    add_source(sp)
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--bound", type=int, required=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("fbound", help="linear-bound recursion f and its verification")
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_fbound)

    sp = sub.add_parser("gallery", help="list gallery items or emit a figure diagram")
    sp.add_argument("action", choices=["list", "emit"])
    sp.add_argument("--id", help="fig1 or fig3")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--format", default="json", choices=["json", "dot"])
    sp.set_defaults(func=cmd_gallery)

    sp = sub.add_parser("export", help="export a diagram as JSON or annotated DOT")
    sp.add_argument("--id", help="fig1 or fig3")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--input", help="diagram JSON file")
    sp.add_argument("--format", default="dot", choices=["json", "dot"])
    sp.add_argument("--output", "-o")
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("pieces", help="piece inventory and the no-big-pieces check")
    add_source(sp, model_flag=False)
    sp.set_defaults(func=cmd_pieces)

    sp = sub.add_parser("embed", help="universal-cover cell-embedding check")
    add_source(sp)
    sp.set_defaults(func=cmd_embed)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
