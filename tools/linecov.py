"""Line coverage of src/edgecolor, stdlib only, and its ledger of unreached lines.

    python3 tools/linecov.py [LEDGER]      # default: tools/linecov-ledger.md

A code line is a line of a code object of the package (``co_lines``), less
the docstrings.  The tracer starts before the package is imported and runs
one round of each benchmark workload at its default seed, then tier-1's
``tests/`` with Hypothesis seeded, so that a fixed source gives a fixed
ledger; the ledger lists, by module and function, the lines that no run
reached and the lines the workloads alone did not reach.  Work done in
child processes (``edgecolor bench``, the demos) is not seen.  Expect
several minutes: the tracer slows tier-1 about fourfold.
"""

import ast
import os
import sys
import tempfile
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "edgecolor")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
reached = set()


def local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def called(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(PKG) else None


def code_lines(path):
    """{line: qualified name of the innermost function holding it}."""
    source = open(path, encoding="utf-8").read()
    docs = {line for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
            for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    owner, stack = {}, [compile(source, path, "exec")]
    while stack:  # outer code objects first, so inner ones overwrite
        code = stack.pop(0)
        owner.update((line, code.co_qualname) for _, _, line in code.co_lines() if line and line not in docs)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return owner


def ranges(lines):
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(ledger):
    threading.settrace(called)
    sys.settrace(called)
    import pytest
    import run
    import workloads
    from edgecolor import classic, cli, formats
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in run.DEFAULT_SEEDS.items():
            for job in workloads.generate(name, seed, os.path.join(tmp, name)):
                if job.epsilon is None:
                    classic.konig_color(formats.read_graph(job.path))
                else:
                    formats.dump_json(cli.run_color(job.path, job.epsilon, job.eta, job.seed, "auto"))
    by_workloads = set(reached)
    pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", os.path.join(ROOT, "tests")])
    sys.settrace(None)
    threading.settrace(None)
    owners = {m: code_lines(os.path.join(PKG, m)) for m in sorted(os.listdir(PKG)) if m.endswith(".py")}
    total = sum(map(len, owners.values()))
    head, rows = f"# Line-coverage ledger of src/edgecolor (`python3 tools/linecov.py`)\n\n{total} code lines.\n", []
    for label, seen in (("tier-1 and the workloads together", reached), ("the workloads alone", by_workloads)):
        rows.append(f"\n# Unreached by {label}\n")
        missed = 0
        for module, owner in owners.items():
            gone = defaultdict(list)
            for line, name in owner.items():
                if (os.path.join(PKG, module), line) not in seen:
                    gone[name].append(line)
            missed += sum(map(len, gone.values()))
            if gone:
                rows += [f"\n## {module}\n"] + [f"- `{name}`: {ranges(lines)}" for name, lines in sorted(gone.items())]
        head += f"{missed} unreached by {label}.\n"
    with open(ledger, "w", encoding="utf-8") as fh:
        fh.write(head + "\n".join(rows) + "\n")
    print(head)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "tools", "linecov-ledger.md"))
