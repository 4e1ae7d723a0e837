"""Static checks on the package source, stdlib ``ast`` only.

An uncalled private function is a module-level function or class whose
name starts with one ``_`` and that no line of the package outside its own
definition names, as a name, an attribute or an import.

A dead local is a name that a function assigns and never reads: in an
assignment, a loop or ``with`` target, an unpacking or an ``except ... as``.
Reads count anywhere in the function, nested functions and comprehensions
included, since a closure reads its enclosing function's names.  Names
that start with ``_`` are exempt, as are names a function declares
``global`` or ``nonlocal``.

An unused import is a name an import statement binds that its module never
reads.  ``from __future__`` imports are exempt, and a name listed in the
module's ``__all__`` counts as read.

An error printer is a call that writes to ``sys.stderr``, by ``print(...,
file=sys.stderr)`` or ``sys.stderr.write(...)``, a string whose literal
start is ``error:``.  The CLI has one, in ``main``.

An index write is a store into an ``EdgeColoring``'s ``_present`` or
``_mask``: an assignment, augmented assignment or ``del`` whose target is
that attribute or an item of it, or a call of a mutating method (``pop``,
``clear``, ``update`` ...) on one.  A local bound to the index or to a row
of it (``present = c._present``, ``at_u = present[u]``, ``for row in
c._mask``) counts as the index.  A function that gets a row as a parameter
is not followed.  Only ``coloring.py`` writes the indexes, and there only
``__init__``, ``assign``, ``unassign``, ``color_common`` and ``flip_path``.
"""

import ast
from pathlib import Path

import edgecolor

SOURCE = Path(edgecolor.__file__).parent

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s body, without the bodies of the functions and
    classes defined in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(source: str, filename: str = "<string>") -> list[tuple[str, int, str]]:
    """``(filename, line, name)`` of every dead local in ``source``."""
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        declared: set[str] = set()
        stores: dict[str, int] = {}
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stores.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)  # x += 1 reads x first
        for name, line in sorted(stores.items(), key=lambda item: item[1]):
            if name not in read and name not in declared and not name.startswith("_"):
                found.append((filename, line, name))
    return found


def uncalled_private(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(filename, line, name)`` of every uncalled private function or class
    in ``sources``, a map of filename to source."""
    defs, refs = [], []
    for filename, source in sources.items():
        tree = ast.parse(source, filename)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((filename, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((filename, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((filename, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((filename, node.lineno, node.name))
    found = []
    for filename, node in defs:
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            name == node.name and (where != filename or line not in inside) for where, line, name in refs
        ):
            found.append((filename, node.lineno, node.name))
    return found


def test_checker_flags_uncalled_private():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _self_only(n):\n"
            "    return _self_only(n - 1) if n else 0\n"
            "class _Unused:\n"
            "    pass\n"
            "def __dunder__():\n"
            "    pass\n"
            "def public():\n"
            "    return _used()\n"
        ),
        "b.py": "from a import _imported\n",
        "c.py": "def _imported():\n    pass\n",
    }
    assert [(f, line, name) for f, line, name in uncalled_private(sources)] == [
        ("a.py", 3, "_self_only"),
        ("a.py", 5, "_Unused"),
    ]


def test_no_uncalled_private_functions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    found = uncalled_private(sources)
    assert found == [], "never referenced: " + ", ".join(f"{f}:{line} {name}" for f, line, name in found)


def test_checker_flags_dead_locals():
    source = (
        "def f(g):\n"
        "    total = 0\n"
        "    for eid, u, _ in g:\n"
        "        total += u\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    seen = set()\n"
        "    def inner():\n"
        "        return seen\n"
        "    return inner\n"
    )
    assert [(line, name) for _, line, name in dead_locals(source)] == [(3, "eid"), (7, "exc")]


def test_no_dead_locals():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += dead_locals(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "assigned and never read: " + ", ".join(f"{f}:{line} {name}" for f, line, name in found)


def unused_imports(source: str, filename: str = "<string>") -> list[tuple[str, int, str]]:
    """``(filename, line, name)`` of every unused import in ``source``."""
    tree = ast.parse(source, filename)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read.update(elt.value for elt in node.value.elts)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((filename, node.lineno, name))
    return found


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Iterable, Optional\n"
        "from .x import exported, unused as alias\n"
        "__all__ = [\"exported\"]\n"
        "def f(n: Optional[int]) -> float:\n"
        "    return math.sqrt(n)\n"
    )
    assert [(line, name) for _, line, name in unused_imports(source)] == [
        (3, "os"),
        (4, "Iterable"),
        (5, "alias"),
    ]


def test_no_unused_imports():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "imported and never read: " + ", ".join(f"{f}:{line} {name}" for f, line, name in found)


def _leading_text(node: ast.AST) -> str:
    """The literal text an expression's string value starts with, as far as
    the source shows it."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return _leading_text(node.values[0])
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _leading_text(node.left)
    return ""


def error_printers(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """``(line, top-level function or <module>)`` of every error printer in
    ``source``."""
    found = []
    for top in ast.parse(source, filename).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = ast.unparse(node.func)
            to_stderr = func == "sys.stderr.write" or (
                func == "print" and any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
            )
            if to_stderr and _leading_text(node.args[0]).startswith("error:"):
                found.append((node.lineno, owner))
    return found


def test_checker_flags_error_printers():
    source = (
        "import sys\n"
        "def main(exc):\n"
        "    print(f\"error: {exc}\", file=sys.stderr)\n"
        "def _cmd(n):\n"
        "    print(\"error: \" + str(n), file=sys.stderr)\n"
        "    sys.stderr.write(f\"error: {n}\\n\")\n"
        "    print(f\"error: {n}\")\n"
        "    print(f\"n={n}\", file=sys.stderr)\n"
        "    print(\"infeasible: error:\", file=sys.stderr)\n"
        "print(\"error: at import\", file=sys.stderr)\n"
    )
    assert error_printers(source) == [(3, "main"), (5, "_cmd"), (6, "_cmd"), (10, "<module>")]


def test_cli_prints_errors_from_main_only():
    found = error_printers((SOURCE / "cli.py").read_text(encoding="utf-8"), "cli.py")
    assert [owner for _, owner in found] == ["main"], "error printers: " + ", ".join(
        f"cli.py:{line} {owner}" for line, owner in found
    )


_INDEXES = {"_present", "_mask"}
_MUTATORS = {"append", "clear", "extend", "insert", "pop", "popitem", "remove", "setdefault", "update"}


def _functions(node: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` of every function defined in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)


def _reaches_index(node: ast.AST, aliases: set[str]) -> bool:
    """Whether ``node`` is an index, an item of one, or a local bound to either."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in _INDEXES:
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in aliases


def _flat(target: ast.AST):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flat(elt)
    elif isinstance(target, ast.Starred):
        yield from _flat(target.value)
    else:
        yield target


def _bindings(node: ast.AST):
    """``(target, value)`` pairs of the names ``node`` binds, tuples paired
    element by element where both sides are tuples of one length."""
    if isinstance(node, ast.Assign):
        pairs = [(t, node.value) for t in node.targets]
    elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
        pairs = [(node.target, node.value)]
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        pairs = [(node.target, node.iter)]
    else:
        pairs = []
    while pairs:
        target, value = pairs.pop()
        if isinstance(target, (ast.Tuple, ast.List)) and isinstance(value, (ast.Tuple, ast.List)) and len(
            target.elts
        ) == len(value.elts):
            pairs += zip(target.elts, value.elts)
        else:
            yield from ((t, value) for t in _flat(target) if isinstance(t, ast.Name))


def index_writes(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """``(line, function or <module>)`` of every index write in ``source``."""
    tree = ast.parse(source, filename)
    found = []
    for owner, scope in [("<module>", tree), *_functions(tree)]:
        nodes = list(_own_nodes(scope))
        aliases: set[str] = set()
        grown = True
        while grown:  # bindings may reach the index through earlier aliases
            grown = False
            for node in nodes:
                for name, value in _bindings(node):
                    if name.id not in aliases and _reaches_index(value, aliases):
                        aliases.add(name.id)
                        grown = True
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = [t for target in node.targets for t in _flat(target)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            # A store into a local rebinds it; a store into an item or attribute writes.
            writes = any(not isinstance(t, ast.Name) and _reaches_index(t, aliases) for t in targets)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                writes = node.func.attr in _MUTATORS and _reaches_index(node.func.value, aliases)
            if writes:
                found.append((node.lineno, owner))
    return sorted(found)


def test_checker_flags_index_writes():
    source = (
        "def f(c, u, g):\n"
        "    c._present[u][1] = 7\n"
        "    del c._present[u][1]\n"
        "    c._mask[u] |= 2\n"
        "    present, mask = c._present, c._mask\n"
        "    at = present[u]\n"
        "    at.pop(1)\n"
        "    mask[u] ^= 2\n"
        "    g.coloring._mask: list = []\n"
        "    seen, k = {}, c.k\n"
        "    seen[u] = at.get(1)\n"
        "    seen.update(present[u])\n"
        "    return 1 in present[u], mask[u] & 2\n"
        "class C:\n"
        "    def reset(self):\n"
        "        for row in self._present:\n"
        "            row.clear()\n"
        "def g(c):\n"
        "    rows = [r for r in c._present if 1 in r]\n"
        "    return rows[0]\n"
        "c._mask = None\n"
    )
    flagged = [(2, "f"), (3, "f"), (4, "f"), (7, "f"), (8, "f"), (9, "f"), (17, "C.reset"), (21, "<module>")]
    assert index_writes(source) == flagged


def test_coloring_alone_writes_the_indexes():
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for _, owner in index_writes(path.read_text(encoding="utf-8"), path.name):
            found.setdefault(path.name, set()).add(owner)
    assert found == {
        "coloring.py": {
            "EdgeColoring.__init__",
            "EdgeColoring.assign",
            "EdgeColoring.unassign",
            "EdgeColoring.color_common",
            "EdgeColoring.rebind",
            "flip_path",
        }
    }
