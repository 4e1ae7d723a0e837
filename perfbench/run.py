"""Benchmark of the Δ-coloring pipeline and König, one workload per process.

    python3 perfbench/run.py --workload decided-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A run imports the package from ``src/`` next to this directory, generates
the workload's inputs from ``--seed`` and writes them as graph files
(set-up), then colors every input in this single-threaded process, in whole
rounds, until ``--seconds`` of timed work have passed (at least one round).
Every output is judged by ``check.py``, which shares no code with the
program.  An operation fails if it raises or if a check rejects its output.
Timings are scaled to a reference machine speed by ``gauge.py``, so that the
host's drift cancels between runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layers (``tracing.py``) and reports per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people.  ``--workload all`` runs every workload untraced and traced
in child processes, compares their outputs byte for byte and reports the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import check
import gauge
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
WORKLOAD_NAMES = ("decided-dense", "fallback-mix", "konig-bipartite")
SETUP_REPEATS = 3
P90_MIN_OPS = 100
SEGMENT_S = 1.0  # least work scaled by one mean of the gauge's samples
DEFAULT_SEEDS = {"decided-dense": 1, "fallback-mix": 3, "konig-bipartite": 4}


def import_program():
    """Import the package from this checkout; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "edgecolor", "__init__.py")):
        sys.exit(f"error: no edgecolor package under {SRC}")
    sys.path.insert(0, SRC)
    import edgecolor
    import edgecolor.cli  # noqa: F401  (the package does not import its CLI)

    import workloads  # noqa: F401  (imports the generators)

    if os.path.dirname(os.path.dirname(os.path.abspath(edgecolor.__file__))) != SRC:
        sys.exit(f"error: edgecolor imported from {edgecolor.__file__}, not {SRC}")


def set_up(workload: str, seed: int, directory: str, meter: gauge.Gauge):
    """Generate and write the inputs SETUP_REPEATS times; the last copy is
    used.  Returns the jobs and the median scaled generation time."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        mark, start = meter.mark(), time.perf_counter()
        jobs = workloads.generate(workload, seed, directory)
        times.extend(meter.scale(mark, [meter.work_seconds(mark, start, time.perf_counter())]))
    return jobs, statistics.median(times)


class Pass:
    """The timed pass: whole rounds over the jobs, outputs checked between
    rounds with the clock stopped.  ``op_times`` are scaled by the gauge,
    ``wall`` is the measured time of the operations."""

    def __init__(self, jobs, views, konig_graphs, meter: gauge.Gauge):
        from edgecolor import classic, cli, formats

        # Functions are looked up on their modules at call time, so that a
        # traced run calls the wrapped ones.
        self.classic, self.cli, self.formats = classic, cli, formats
        self.jobs = jobs
        self.views = views
        self.konig_graphs = konig_graphs
        self.meter = meter
        self.op_times: list[float] = []
        self.wall = 0.0
        self.rounds = 0
        self.attempted = 0
        self.raised = 0
        self.rejected = 0
        self.verified_edges = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, str] = {}
        self.verdicts: dict[str, int] = {}
        self.causes: dict[str, int] = {}
        self.decided = 0
        self.job_seconds: dict[str, float] = {}

    def operation(self, job):
        if self.konig_graphs is not None:
            return self.classic.konig_color(self.konig_graphs[job.name])
        return self.formats.dump_json(self.cli.run_color(job.path, job.epsilon, job.eta, job.seed, "auto"))

    def run(self, seconds: float) -> None:
        clock = time.perf_counter
        while self.rounds == 0 or self.wall < seconds:
            outputs = {}
            segment, pending = self.meter.mark(), []
            for job in self.jobs:
                mark, start = self.meter.mark(), clock()
                try:
                    outputs[job.name] = self.operation(job)
                except Exception as exc:  # a raising operation is a failed one
                    outputs[job.name] = exc
                seconds_taken = self.meter.work_seconds(mark, start, clock())
                pending.append(seconds_taken)
                self.wall += seconds_taken
                if sum(pending) >= SEGMENT_S or job is self.jobs[-1]:
                    self.op_times.extend(self.meter.scale(segment, pending))
                    segment, pending = self.meter.mark(), []
            if self.rounds == 0:
                self.job_seconds = {job.name: t for job, t in zip(self.jobs, self.op_times)}
            self.judge(outputs)
            self.rounds += 1

    def inspect(self, job, out) -> tuple[str, list[str], str, str | None]:
        """Canonical text, problems, verdict and fallback cause of one output."""
        view = self.views[job.name]
        try:
            if self.konig_graphs is not None:
                assignment = dict(out.assignment)
                return json.dumps(sorted(assignment.items())), check.check_konig(view, assignment), "Konig", None
            doc = json.loads(out)
            problems = check.check_document(view, doc)
            note = next((e["note"] for e in doc["trace"] if e["step"] == "fallback"), None)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return str(out), [f"malformed output: {exc!r}"], "malformed", None
        return out, problems, doc["verdict"], None if note is None else note.split(":")[0]

    def judge(self, outputs: dict) -> None:
        first_round = self.rounds == 0
        for job in self.jobs:
            self.attempted += 1
            out = outputs[job.name]
            if isinstance(out, Exception):
                self.raised += 1
                where = traceback.extract_tb(out.__traceback__)[-1]
                self.problems.append(f"{job.name}: raised {type(out).__name__}: {out} "
                                     f"at {os.path.basename(where.filename)}:{where.lineno}")
                continue
            text, problems, verdict, cause = self.inspect(job, out)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if first_round:
                self.first_digests[job.name] = digest
            elif digest != self.first_digests[job.name]:
                problems.append("output differs from the first round's")
            if problems:
                self.rejected += 1
                self.problems.extend(f"{job.name}: {p}" for p in problems[:3])
                continue
            self.verified_edges += len(self.views[job.name].ends)
            if first_round:
                self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
                if verdict in check.DECIDED or verdict == "Konig":
                    self.decided += 1
                if cause is not None:
                    self.causes[cause] = self.causes.get(cause, 0) + 1

    def digest(self) -> str:
        """One hash over every first-round output, in job-name order."""
        joined = "".join(f"{name}:{self.first_digests[name]}\n" for name in sorted(self.first_digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def run_tag(workload: str, seed: int, trace: bool) -> str:
    return f"{workload}-s{seed}-t{int(trace)}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    meter = gauge.Gauge()
    meter.start()
    try:
        measured = measure(workload, seed, seconds, trace, meter)
    finally:
        meter.stop()
    return report(workload, seed, trace, meter, *measured)


def measure(workload: str, seed: int, seconds: float, trace: bool, meter: gauge.Gauge):
    """Set up and run the timed pass.  Returns the jobs, the pass, the
    tracer (None untraced) and the scaled set-up time."""
    mark, start = meter.mark(), time.perf_counter()
    import_program()
    (import_s,) = meter.scale(mark, [meter.work_seconds(mark, start, time.perf_counter())])

    from edgecolor import formats

    os.makedirs(WORK, exist_ok=True)
    input_dir = os.path.join(WORK, f"inputs-{run_tag(workload, seed, trace)}-{os.getpid()}")
    try:
        jobs, generate_s = set_up(workload, seed, input_dir, meter)
        views = {job.name: check.read_mg(job.path) for job in jobs}
        konig_graphs = None
        if workload == "konig-bipartite":
            konig_graphs = {job.name: formats.read_graph(job.path) for job in jobs}
        timed = Pass(jobs, views, konig_graphs, meter)
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            timed.run(seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    return jobs, timed, tracer, import_s + generate_s


def report(workload: str, seed: int, trace: bool, meter: gauge.Gauge, jobs, timed: Pass, tracer,
           setup_s: float) -> int:
    failed = timed.raised + timed.rejected
    times = timed.op_times
    end_to_end = {
        "edges_per_s": (timed.verified_edges / sum(times), "edges/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "decided": (timed.decided, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    if len(jobs) >= P90_MIN_OPS:
        # Reported, not gated: only workloads with at least 100 operations
        # per run have ten samples beyond their 90th percentile.
        end_to_end["op_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    per_layer = {}
    if tracer is not None:
        per_layer = tracer.metrics(timed.rounds)
        tracer.write(os.path.join(WORK, f"spans-{workload}.json"))

    print(f"{workload} seed {seed} trace {int(trace)}: {timed.rounds} round(s) of {len(jobs)} "
          f"operations, {timed.attempted} attempted, {failed} failed, timed wall {timed.wall:.3f} s")
    print(f"  machine {meter.slowness():.3f}x the reference loop's time over {len(meter.loop_s)} samples; "
          f"unscaled {timed.verified_edges / timed.wall:.1f} edges/s")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<14} {value:>14.6g} {unit}")
    print(f"  verdicts per round: {json.dumps(timed.verdicts, sort_keys=True)}")
    if timed.causes:
        print(f"  fallback causes per round: {json.dumps(timed.causes, sort_keys=True)}")
    print(f"  outputs sha256 {timed.digest()}")
    for problem in timed.problems[:10]:
        print(f"  PROBLEM {problem}")
    for name, value in per_layer.items():
        print(f"  {name:<32} {value:>14.6g}")

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": timed.rounds,
        "operations_per_round": len(jobs),
        "attempted": timed.attempted,
        "failed": failed,
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "machine_slowness": meter.slowness(),
        "unscaled_edges_per_s": timed.verified_edges / timed.wall,
        "per_layer": per_layer,
        "verdicts": timed.verdicts,
        "fallback_causes": timed.causes,
        "outputs_sha256": timed.digest(),
        "problems": timed.problems,
        "first_round_seconds": timed.job_seconds,
    }
    with open(os.path.join(WORK, f"result-{run_tag(workload, seed, trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if trace:
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()
                   if name != "op_s_p90"}
    print(json.dumps({"correct": timed.rejected == 0, "attempted": timed.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int | None, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process; the
    two runs' outputs must be byte-identical."""
    ok = True
    summary = {}
    for workload in WORKLOAD_NAMES:
        run_seed = seed if seed is not None else DEFAULT_SEEDS[workload]
        records = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(run_seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                ok = False
                continue
            with open(os.path.join(WORK, f"result-{run_tag(workload, run_seed, trace)}.json"), encoding="utf-8") as fh:
                records[trace] = json.load(fh)
        if len(records) < 2:
            continue
        plain, traced = records[0], records[1]
        identical = plain["outputs_sha256"] == traced["outputs_sha256"]
        rate, traced_rate = plain["end_to_end"]["edges_per_s"], traced["end_to_end"]["edges_per_s"]
        overhead = 1.0 - traced_rate / rate
        print(f"{workload}: traced outputs identical: {identical}; tracing overhead "
              f"{overhead:.1%} of edges_per_s ({rate:.1f} untraced, {traced_rate:.1f} traced)")
        ok = ok and identical and plain["failed"] == 0 and traced["failed"] == 0
        summary[workload] = {"end_to_end": plain["end_to_end"], "tracing_overhead": overhead,
                             "traced_outputs_identical": identical, "failed": plain["failed"]}
    print(json.dumps({"ok": ok, "workloads": summary}, sort_keys=True))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    seed = args.seed if args.seed is not None else DEFAULT_SEEDS[args.workload]
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
