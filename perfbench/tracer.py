"""Spans and exact counters around the library's public functions.

A traced round replaces each function named in ``install`` with a wrapper
at the place its callers look it up (a module attribute or a class
attribute), so the library itself is unchanged.  Each wrapped call records
a span: name, start, end and the span that was open when it began.  Spans
stay in memory until the round ends; ``layer_metrics`` then turns them into
per-layer totals and self times, and ``write_spans`` dumps them.

Outcome counters (refused gluings, rejected children, how an area was
certified) are read from the return values at the same boundaries.  The
private invariant bound and the bound-perfect probe have no public entry
point, so they show up only through the counts ``AreaResult`` returns.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._patches: list = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> float:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        return t - self.start[i]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span per call; ``observe(counts, result, seconds)``
        reads outcomes from the return value."""
        orig = getattr(owner, attr)
        nid = self._nid(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            tracer.calls[name] += 1
            i = tracer._open(nid)
            try:
                res = orig(*args, **kwargs)
            finally:
                dur = tracer._close(i)
            if observe is not None:
                observe(tracer.counts, res, dur)
            return res

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, on_item=None) -> None:
        """A generator runs in pieces: one span per resume, one call per
        generator created."""
        orig = getattr(owner, attr)
        nid = self._nid(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            if tracer.active:
                tracer.calls[name] += 1
            while True:
                i = tracer._open(nid) if tracer.active else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if i is not None:
                        tracer._close(i)
                if on_item is not None and tracer.active:
                    on_item(tracer.counts, item)
                yield item

        self._patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls without a span (for hot, tiny operations)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def span_totals(self) -> dict:
        """Per span name: total seconds and self seconds (total minus the
        time covered by child spans)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return {"total": total, "self": self_s}

    def write_spans(self, path) -> None:
        """Gzipped TSV, one line per span: index, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}"
                    f"\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


# ----------------------------------------------------------------------
# what is traced


def _refused(counts, res, _dur):
    if res is None:
        counts["diagram.attach_face.refused"] += 1


def _disk_rejected(counts, res, _dur):
    if not res:
        counts["diagram.is_topological_disk.rejected"] += 1


def _reduced_outcome(counts, res, _dur):
    # the enumerator asks for a witness only of children that are disks,
    # so a None here is a child admitted to the duplicate check
    if res is not None:
        counts["diagram.reduced_witness.rejected"] += 1
    else:
        counts["enumeration.admitted"] += 1


def _emitted(counts, _item):
    counts["enumeration.emitted"] += 1


def _oracle_outcome(counts, res, dur):
    method = res.method
    counts[f"enumeration.area_oracle.{method}.calls"] += 1
    counts[f"enumeration.area_oracle.{method}.s"] += dur
    note = res.note
    if method == "diagram_search":
        if res.certified_exact:
            counts["enumeration.certified.diagram_search"] += 1
    elif note.startswith("filling meets"):
        counts["enumeration.certified.bound_met"] += 1
        counts["enumeration.probe.nodes"] += res.expanded
    elif note.startswith(("abelian obstruction", "lower bound")):
        counts["enumeration.certified.abelian"] += 1
    else:
        if res.certified_exact:
            counts["enumeration.certified.exhausted"] += 1
        counts["enumeration.astar.expanded"] += res.expanded


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers look up."""
    from vankampen import cli, dehn_props, diagram, enumeration, gallery, group_models

    E = enumeration
    tracer.wrap(E, "attach_face", "diagram.attach_face", _refused)
    tracer.wrap(E, "is_topological_disk", "diagram.is_topological_disk", _disk_rejected)
    tracer.wrap(E, "reduced_witness", "diagram.reduced_witness", _reduced_outcome)
    tracer.wrap(diagram.DiskDiagram, "to_json", "diagram.to_json")
    tracer.wrap(diagram.DiskDiagram, "canonical_code", "diagram.canonical_code")
    for name in ("find_spurs", "find_shells", "find_cutcells"):
        tracer.wrap(dehn_props, name, f"diagram.{name}")
    tracer.wrap(gallery, "vertex_lift", "diagram.vertex_lift")
    for owner in (E, cli, dehn_props):
        tracer.wrap_generator(owner, "enumerate_diagrams", "enumeration.enumerate_diagrams", _emitted)
    tracer.wrap(dehn_props, "is_minimal", "enumeration.is_minimal")
    tracer.wrap(E, "area_oracle", "enumeration.area_oracle", _oracle_outcome)
    tracer.wrap(E, "disk_boundary_table", "enumeration.disk_boundary_table")
    tracer.wrap(E, "canonical_cyclic", "enumeration.canonical_cyclic")
    tracer.wrap(dehn_props, "check_dehn", "dehn_props.scan")
    tracer.wrap(dehn_props, "check_generalized_dehn", "dehn_props.scan")
    tracer.wrap(gallery, "corner_classification", "gallery.corner_classification")
    tracer.count_calls(group_models.GroupElement, "__mul__", "group_models.mul")
    tracer.wrap(cli, "main", "cli.main")


# (metric name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("diagram.attach_face.calls", "count", "lower"),
    ("diagram.attach_face.s", "s", "lower"),
    ("diagram.attach_face.refused", "count", "lower"),
    ("diagram.is_topological_disk.calls", "count", "lower"),
    ("diagram.is_topological_disk.s", "s", "lower"),
    ("diagram.is_topological_disk.rejected", "count", "lower"),
    ("diagram.reduced_witness.calls", "count", "lower"),
    ("diagram.reduced_witness.s", "s", "lower"),
    ("diagram.reduced_witness.rejected", "count", "lower"),
    ("diagram.to_json.s", "s", "lower"),
    ("diagram.canonical_code.calls", "count", "lower"),
    ("diagram.canonical_code.s", "s", "lower"),
    ("diagram.find_spurs.calls", "count", "lower"),
    ("diagram.find_spurs.s", "s", "lower"),
    ("diagram.find_shells.calls", "count", "lower"),
    ("diagram.find_shells.s", "s", "lower"),
    ("diagram.find_cutcells.calls", "count", "lower"),
    ("diagram.find_cutcells.s", "s", "lower"),
    ("diagram.vertex_lift.s", "s", "lower"),
    ("enumeration.enumerate_diagrams.self_s", "s", "lower"),
    ("enumeration.duplicates", "count", "lower"),
    ("enumeration.emitted", "count", "higher"),
    ("enumeration.yield_ratio", "ratio", "higher"),
    ("enumeration.is_minimal.calls", "count", "lower"),
    ("enumeration.is_minimal.s", "s", "lower"),
    ("enumeration.area_oracle.diagram_search.calls", "count", "lower"),
    ("enumeration.area_oracle.diagram_search.s", "s", "lower"),
    ("enumeration.disk_boundary_table.s", "s", "lower"),
    ("enumeration.probe.nodes", "count", "lower"),
    ("enumeration.area_oracle.relator_bfs.calls", "count", "lower"),
    ("enumeration.area_oracle.relator_bfs.s", "s", "lower"),
    ("enumeration.astar.expanded", "count", "lower"),
    ("enumeration.canonical_cyclic.calls", "count", "lower"),
    ("enumeration.canonical_cyclic.s", "s", "lower"),
    ("enumeration.certified.bound_met", "count", "higher"),
    ("enumeration.certified.exhausted", "count", "lower"),
    ("enumeration.certified.diagram_search", "count", "lower"),
    ("enumeration.certified.abelian", "count", "higher"),
    ("dehn_props.scan.self_s", "s", "lower"),
    ("gallery.corner_classification.calls", "count", "lower"),
    ("gallery.corner_classification.s", "s", "lower"),
    ("group_models.mul.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except the overhead, which needs an
    untraced round to compare with."""
    spans = tracer.span_totals()
    out = {}
    for name, _unit, _better in PER_LAYER:
        stem, _, leaf = name.rpartition(".")
        if name == "tracing.overhead_s":
            continue
        if name in tracer.counts:
            out[name] = tracer.counts[name]
        elif leaf == "calls":
            out[name] = tracer.calls.get(stem, 0)
        elif leaf == "s":
            out[name] = spans["total"].get(stem, 0.0)
        elif leaf == "self_s":
            out[name] = spans["self"].get(stem, 0.0)
        else:
            out[name] = 0
    emitted = tracer.counts.get("enumeration.emitted", 0)
    out["enumeration.duplicates"] = tracer.counts.get("enumeration.admitted", 0) - emitted
    gluings = tracer.calls.get("diagram.attach_face", 0)
    out["enumeration.yield_ratio"] = emitted / gluings if gluings else 0.0
    return out
