"""Command-line interface: generate, color, verify, oracle, bench.

Outputs are deterministic for a fixed (input, seed): JSON is emitted with
sorted keys and no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import formats
from .engine import EngineParams, dcolor
from .errors import EdgeColorError, EvenOrderInput, InfeasibleParams, ParseError, TooLarge
from .generators import (
    gen_case_fixture,
    gen_complete,
    gen_complete_minus_matching,
    gen_dcolor_fixture,
    gen_random_dense,
    gen_regular,
)
from .multigraph import Multigraph, is_overfull
from .oracle import brute_chromatic_index, brute_overfull_scan
from .reduction import color_odd_dense
from .coloring import verify_proper

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALLBACK = 2


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if args.n < 0:
        print(f"error: --n must be nonnegative, got {args.n}", file=sys.stderr)
        return EXIT_ERROR
    comments = [f"kind {kind}"]
    try:
        if kind == "complete":
            g = gen_complete(args.n)
        elif kind == "complete-minus-matching":
            size = args.matching_size if args.matching_size is not None else args.n // 2
            g = gen_complete_minus_matching(args.n, size)
            comments.append(f"matching-size {size}")
        elif kind == "random-dense":
            floor = args.delta_floor if args.delta_floor is not None else int(
                (1 + args.epsilon) * ((args.n + 1) // 2)
            )
            g = gen_random_dense(args.n, args.p, floor, args.seed)
            comments.append(f"seed {args.seed}")
            comments.append(f"p {args.p} delta-floor {floor}")
        elif kind == "regular":
            g = gen_regular(args.n, args.degree, args.seed)
            comments.append(f"seed {args.seed}")
            comments.append(f"degree {args.degree}")
        elif kind == "dcolor-fixture":
            fix = gen_dcolor_fixture(args.condition, args.n)
            g = fix.graph
            comments.append(f"condition {args.condition}")
            comments.append(f"suggested-epsilon {fix.epsilon} suggested-eta {fix.eta}")
        elif kind == "case-fixture":
            fix = gen_case_fixture(args.case, args.n)
            g = fix.graph
            comments.append(f"case {args.case}")
            comments.append(f"suggested-epsilon {fix.epsilon} suggested-eta {fix.eta}")
        else:
            print(f"unknown kind {kind!r}", file=sys.stderr)
            return EXIT_ERROR
    except InfeasibleParams as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_out(formats.emit_graph(g, comments), args.out)
    return EXIT_OK


def run_color(path: str, epsilon: float, eta: float | None, seed: int, mode: str) -> dict:
    """Color one graph file; returns the result document (pure, picklable)."""
    return _color_graph(formats.read_graph(path), path, epsilon, eta, seed, mode)


def _color_graph(
    g: Multigraph, path: str, epsilon: float, eta: float | None, seed: int, mode: str
) -> dict:
    """The result document of coloring ``g``, which was read from ``path``."""
    even = g.vertex_count % 2 == 0
    if mode == "odd" and even:
        raise EvenOrderInput(f"|V|={g.vertex_count}")
    use_engine = mode == "engine" or (mode == "auto" and even)
    doc: dict = {
        "schema": 1,
        "input": os.path.basename(path),
        "n": g.vertex_count,
        "delta": g.max_degree(),
        "epsilon": epsilon,
        "eta": eta,
        "seed": seed,
        "mode": mode,
    }
    if use_engine:
        res = dcolor(g, EngineParams(epsilon=epsilon, eta=eta if eta is not None else 0.1, seed=seed))
    else:
        res = color_odd_dense(g, epsilon, eta=eta, seed=seed)
        doc["case"] = res.case
    doc["verdict"] = res.verdict
    doc["condition"] = res.condition
    doc["colors_used"] = res.colors_used
    doc["coloring"] = formats.coloring_to_dict(res.coloring, g)
    doc["trace"] = res.trace.to_list()
    return doc


def _cmd_color(args: argparse.Namespace) -> int:
    try:
        doc = run_color(args.input, args.epsilon, args.eta, args.seed, args.mode)
    except (ParseError, EdgeColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _write_out(formats.dump_json(doc), args.out)
    if doc["verdict"] in ("ClassOne", "ClassTwo", "Colored"):
        return EXIT_OK
    return EXIT_FALLBACK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        g = formats.read_graph(args.graph)
        with open(args.coloring, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "coloring" in data:
            data = data["coloring"]
        c = formats.coloring_from_dict(data, g)
    except (ParseError, EdgeColorError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report = verify_proper(g, c)
    doc = {
        "schema": 1,
        "ok": report.ok,
        "total": all(eid in c.assignment for eid in g.edge_ids()),
        "colors_used": len(set(c.assignment.values())),
        "violations": [list(v) for v in report.violations[:50]],
    }
    _write_out(formats.dump_json(doc), args.out)
    return EXIT_OK if report.ok else EXIT_ERROR


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        g = formats.read_graph(args.input)
        result = brute_chromatic_index(g, max_edges=args.max_edges)
        scan = brute_overfull_scan(g) if g.vertex_count <= 20 else None
    except (ParseError, TooLarge, EdgeColorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    doc = {
        "schema": 1,
        "chi_prime": result.chi_prime,
        "delta": g.max_degree(),
        "class": 1 if result.chi_prime == g.max_degree() else 2,
        "overfull": is_overfull(g),
        "coloring": formats.coloring_to_dict(result.witness, g),
    }
    # A null witness means the scan ran and found none; above its cap only
    # g itself is checked, and the key is left out when g is not overfull.
    if g.vertex_count <= 20:
        doc["overfull_witness"] = scan
    elif doc["overfull"]:
        doc["overfull_witness"] = g.vertex_list()
    _write_out(formats.dump_json(doc), args.out)
    return EXIT_OK


def _bench_one(job: tuple[str, float, float | None, int]) -> dict:
    path, epsilon, eta, seed = job
    row: dict = {"file": os.path.basename(path)}
    start = time.perf_counter()
    try:
        g = formats.read_graph(path)
        row["n"] = g.vertex_count
        row["delta"] = g.max_degree()
        row["delta_min"] = g.min_degree()
        doc = _color_graph(g, path, epsilon, eta, seed, "auto")
        row["verdict"] = doc["verdict"]
        row["case_or_condition"] = str(doc.get("case", "")) + doc.get("condition", "")
        row["colors"] = doc["colors_used"]
        row["guard_failures"] = sum(1 for e in doc["trace"] if not e["pass"])
        if "Fallback" in doc["verdict"]:
            cause = next(
                (e["note"] for e in doc["trace"] if e["step"] == "fallback"), ""
            )
            row["cause"] = cause.split(":")[0]
    except Exception as exc:  # row-level isolation: a bad instance must not kill the run
        row["verdict"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time"] = round(time.perf_counter() - start, 3)
    return row


_BENCH_FIELDS = [
    "file",
    "n",
    "delta",
    "delta_min",
    "case_or_condition",
    "verdict",
    "colors",
    "guard_failures",
    "cause",
    "wall_time",
    "error",
]


def _cmd_bench(args: argparse.Namespace) -> int:
    paths = sorted(
        os.path.join(args.corpus, f)
        for f in os.listdir(args.corpus)
        if f.endswith(".mg")
    )
    jobs = [(p, args.epsilon, args.eta, args.seed) for p in paths]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, jobs))
    else:
        rows = [_bench_one(j) for j in jobs]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in _BENCH_FIELDS})
    _write_out(buf.getvalue(), args.out)
    done = [r for r in rows if r["verdict"] != "error"]
    class_one = sum(1 for r in done if r["verdict"] == "ClassOne")
    colored = sum(1 for r in done if r["verdict"] == "Colored")
    fellback = [r for r in done if "Fallback" in r["verdict"]]
    causes: dict[str, int] = {}
    for r in fellback:
        key = r.get("cause") or "unspecified"
        causes[key] = causes.get(key, 0) + 1
    cause_summary = " ".join(f"{k}:{v}" for k, v in sorted(causes.items()))
    print(
        f"instances={len(rows)} class-one={class_one} engine-colored={colored} "
        f"class-two={sum(1 for r in done if r['verdict'] == 'ClassTwo')} "
        f"fallback={len(fellback)} errors={len(rows) - len(done)}"
        + (f" fallback-causes[{cause_summary}]" if causes else ""),
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="edgecolor", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--kind", required=True, choices=[
        "complete", "complete-minus-matching", "random-dense", "regular",
        "dcolor-fixture", "case-fixture",
    ])
    p.add_argument("--n", type=int, required=True, help="vertex count (fixtures: half order)")
    p.add_argument("--p", type=float, default=0.7)
    p.add_argument("--delta-floor", type=int, default=None)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--matching-size", type=int, default=None)
    p.add_argument("--condition", default="a", choices=list("abcde"))
    p.add_argument("--case", type=int, default=1, choices=[1, 2, 3, 4])
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0, help=(
        "seed of random-dense and regular; the other kinds, fixtures included, "
        "are deterministic and write no seed comment"))
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="color a graph")
    p.add_argument("input")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="auto", choices=["auto", "odd", "engine"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="verify a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact chromatic index of a small graph")
    p.add_argument("input")
    p.add_argument("--max-edges", type=int, default=40)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a corpus and emit CSV")
    p.add_argument("corpus")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
