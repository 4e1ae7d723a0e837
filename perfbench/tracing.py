"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of the edgecolor modules and
the Multigraph methods listed in WRAPS.  It also rebinds every copy of a
wrapped name that another module bound by importing it (for example
``edgecolor.engine.near_star_color`` is the same function object as
``edgecolor.vizing.near_star_color``), so calls through either name are
seen.  No source file changes, and ``uninstall`` restores the originals.

Each wrapped call records a span (name, start, end, parent) in memory.
Self time is a span's duration minus the time its child spans cover.  A
group's time and count take only its outermost spans, so a copy made
inside another copy, or a matching inside a matching, is counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

from check import FALLBACKS

# (module, attribute, group).  A group names the layer metric the call
# feeds; functions of one group share outermost-only accounting.
WRAPS = [
    ("cli", "run_color", "cli"),
    ("formats", "read_graph", "formats.read"),
    ("formats", "coloring_to_dict", "formats.emit"),
    ("formats", "dump_json", "formats.emit"),
    ("reduction", "color_odd_dense", "reduction"),
    ("reduction", "case1_reduce", "reduction.case"),
    ("reduction", "case2_reduce", "reduction.case"),
    ("reduction", "case3_reduce", "reduction.case"),
    ("reduction", "case4_reduce", "reduction.case"),
    ("engine", "dcolor", "engine"),
    ("engine", "classify_condition", "engine.classify"),
    ("engine", "select_pairs", "engine.classify"),
    ("engine", "step1_color_gab", "engine.step1"),
    ("engine", "step2_fix_center", "engine.step2"),
    ("engine", "step2_relocate_S", "engine.step2"),
    ("engine", "step2_extend_to_factors", "engine.step2"),
    ("engine", "step3_color_residuals", "engine.step3"),
    ("engine", "step4_finish", "engine.step4"),
    ("partition", "balanced_partition", "partition"),
    ("partition", "adjust_for_center", "partition"),
    ("partition", "build_split", "partition"),
    ("equalize", "equalize_classes", "equalize"),
    ("equalize", "equalize_balanced_sides", "equalize"),
    ("equalize", "equalize_per_side", "equalize"),
    ("vizing", "misra_gries", "vizing.misra_gries"),
    ("vizing", "near_star_color", "vizing.near_star"),
    ("classic", "konig_color", "classic.konig"),
    ("classic", "perfect_matching_dense", "classic.matching"),
    ("classic", "perfect_matching_bipartite_star", "classic.matching"),
    ("classic", "path_cover_star", "classic.path_cover"),
    ("classic", "path_cover_matching", "classic.path_cover"),
    ("coloring", "verify_proper", "coloring.verify"),
    ("coloring", "kempe_chain", "coloring.kempe"),
    ("coloring", "kempe_swap", "coloring.kempe"),
    ("multigraph", "Multigraph.copy", "multigraph.copy"),
    ("multigraph", "Multigraph.without_edges", "multigraph.copy"),
    ("multigraph", "Multigraph.without_vertices", "multigraph.copy"),
    ("multigraph", "Multigraph.grown", "multigraph.copy"),
    ("multigraph", "Multigraph.underlying_simple", "multigraph.copy"),
    ("multigraph", "Multigraph.max_degree", "multigraph.degree_scan"),
    ("multigraph", "Multigraph.min_degree", "multigraph.degree_scan"),
    ("multigraph", "Multigraph.degrees", "multigraph.degree_scan"),
    ("multigraph", "deficiency_report", "multigraph.deficiency_report"),
]

# Per-layer metric -> how it is computed.  "time" and "count" read a
# group's outermost spans, "self" sums the self time of the named spans,
# and "counter" reads a value the wrappers observed in arguments or results.
METRICS = {
    "formats.read_s": ("time", "formats.read"),
    "formats.emit_s": ("time", "formats.emit"),
    "reduction.self_s": ("self", ("color_odd_dense", "case1_reduce", "case2_reduce", "case3_reduce", "case4_reduce")),
    "reduction.cases": ("count", "reduction.case"),
    "engine.calls": ("count", "engine"),
    "engine.colored": ("counter", "engine.colored"),
    "engine.classify_s": ("self", ("classify_condition", "select_pairs")),
    "engine.step1_s": ("self", ("step1_color_gab",)),
    "engine.step2_s": ("self", ("step2_fix_center", "step2_relocate_S", "step2_extend_to_factors")),
    "engine.step3_s": ("self", ("step3_color_residuals",)),
    "engine.step4_s": ("self", ("step4_finish",)),
    "engine.wasted_s": ("counter", "engine.wasted_s"),
    "partition.s": ("time", "partition"),
    "partition.retries": ("counter", "partition.retries"),
    "equalize.s": ("time", "equalize"),
    "equalize.calls": ("count", "equalize"),
    "vizing.misra_gries_s": ("time", "vizing.misra_gries"),
    "vizing.misra_gries_edges": ("counter", "vizing.misra_gries_edges"),
    "vizing.final_fallback_s": ("counter", "vizing.final_fallback_s"),
    "vizing.near_star_s": ("time", "vizing.near_star"),
    "vizing.near_star_calls": ("count", "vizing.near_star"),
    "vizing.discarded_s": ("counter", "vizing.discarded_s"),
    "classic.konig_s": ("time", "classic.konig"),
    "classic.konig_edges": ("counter", "classic.konig_edges"),
    "classic.matching_s": ("time", "classic.matching"),
    "classic.matchings": ("count", "classic.matching"),
    "classic.path_cover_s": ("time", "classic.path_cover"),
    "coloring.verify_s": ("time", "coloring.verify"),
    "coloring.verify_calls": ("count", "coloring.verify"),
    "coloring.kempe_s": ("time", "coloring.kempe"),
    "coloring.kempe_chains": ("counter", "coloring.kempe_chains"),
    "multigraph.copies": ("count", "multigraph.copy"),
    "multigraph.copy_s": ("time", "multigraph.copy"),
    "multigraph.degree_scans": ("count", "multigraph.degree_scan"),
    "multigraph.degree_scan_s": ("time", "multigraph.degree_scan"),
    "multigraph.deficiency_report_s": ("time", "multigraph.deficiency_report"),
}
UNITS = {name: "s" if name.endswith(("_s", ".s")) else "count" for name in METRICS}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, child time] per open span
        self.self_time: dict[str, float] = {}
        self.group_time: dict[str, float] = {}
        self.group_count: dict[str, int] = {}
        self.group_depth: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.verdicts: dict[int, str] = {}  # span index -> result verdict
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str, group: str):
        name_id = len(self.names)
        self.names.append(name)
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.span_name)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            depth = tracer.group_depth.get(group, 0)
            tracer.group_depth[group] = depth + 1
            frame = [index, 0.0]
            tracer.stack.append(frame)
            start = tracer.span_start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.span_end[index] = end
                tracer.stack.pop()
                tracer.group_depth[group] = depth
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + duration - frame[1]
                if depth == 0:
                    tracer.group_time[group] = tracer.group_time.get(group, 0.0) + duration
                    tracer.group_count[group] = tracer.group_count.get(group, 0) + 1
            if observe is not None:
                observe(tracer, index, args, result)
            return result

        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "edgecolor" or k.startswith("edgecolor.")]
        for module_name, attr, group in WRAPS:
            module = importlib.import_module(f"edgecolor.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, meth, group))
                continue
            original = getattr(module, attr)
            traced = self._wrap(original, attr, group)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def _nearest(self, index: int, name_id: int) -> int:
        parent = self.span_parent[index]
        while parent >= 0 and self.span_name[parent] != name_id:
            parent = self.span_parent[parent]
        return parent

    def outcome_counters(self) -> None:
        """Charge engine and Vizing work to fallbacks that threw it away.

        ``engine.wasted_s``: every dcolor call inside a color_odd_dense call
        that returned a fallback; the reduction discarded its result.
        ``vizing.discarded_s``: near_star_color calls made directly by such
        a dcolor call after it fell back.  ``vizing.final_fallback_s``: the
        misra_gries call that color_odd_dense itself returns on fallback.
        """
        ids = {name: i for i, name in enumerate(self.names)}
        odd, dcolor = ids["color_odd_dense"], ids["dcolor"]
        nsc, mg = ids["near_star_color"], ids["misra_gries"]
        wasted = discarded = final = 0.0
        for i, name_id in enumerate(self.span_name):
            if name_id not in (dcolor, nsc, mg):
                continue
            duration = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if name_id == dcolor:
                owner = self._nearest(i, odd)
                if owner >= 0 and self.verdicts.get(owner) in FALLBACKS:
                    wasted += duration
            elif name_id == nsc:
                if parent >= 0 and self.span_name[parent] == dcolor and self.verdicts.get(parent) in FALLBACKS:
                    owner = self._nearest(parent, odd)
                    if owner >= 0 and self.verdicts.get(owner) in FALLBACKS:
                        discarded += duration
            elif parent >= 0 and self.span_name[parent] == odd and self.verdicts.get(parent) in FALLBACKS:
                final += duration
        self.counters["engine.wasted_s"] = wasted
        self.counters["vizing.discarded_s"] = discarded
        self.counters["vizing.final_fallback_s"] = final

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload."""
        self.outcome_counters()
        out = {}
        for metric, (how, key) in METRICS.items():
            if how == "time":
                value = self.group_time.get(key, 0.0)
            elif how == "count":
                value = self.group_count.get(key, 0)
            elif how == "self":
                value = sum(self.self_time.get(name, 0.0) for name in key)
            else:
                value = self.counters.get(key, 0)
            out[metric] = value / rounds if isinstance(value, float) else value // rounds
        return out

    def write(self, path: str) -> None:
        """Write the spans: one JSON object of parallel arrays."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )


def _edges_of_first_arg(key: str):
    def observe(tracer: Tracer, index: int, args, result) -> None:
        tracer.count(key, args[0].edge_count)

    return observe


def _record_verdict(tracer: Tracer, index: int, args, result) -> None:
    tracer.verdicts[index] = result.verdict
    if result.verdict == "Colored":
        tracer.count("engine.colored")


def _record_odd_verdict(tracer: Tracer, index: int, args, result) -> None:
    tracer.verdicts[index] = result.verdict


def _record_retries(tracer: Tracer, index: int, args, result) -> None:
    tracer.count("partition.retries", result.retries)


def _count_chain(tracer: Tracer, index: int, args, result) -> None:
    tracer.count("coloring.kempe_chains")


_OBSERVERS = {
    "dcolor": _record_verdict,
    "color_odd_dense": _record_odd_verdict,
    "balanced_partition": _record_retries,
    "misra_gries": _edges_of_first_arg("vizing.misra_gries_edges"),
    "konig_color": _edges_of_first_arg("classic.konig_edges"),
    "kempe_chain": _count_chain,
}
