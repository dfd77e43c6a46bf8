"""The package's import layering as a checked property (``ast`` only).

``import repro`` follows one downward order — ``errors`` → iterator
protocol → ``storage`` → ``objects`` → ``obs`` primitives → ``core`` →
``volcano`` → ``cluster`` → ``service`` → ``fabric`` → ``query`` /
``database`` → ``bench`` — and nothing holds a cycle together with a
deferred import.  Two checks, no allow-list:

* no ``repro`` import below module level or under ``if TYPE_CHECKING:``;
* the module graph (every import an edge, every module also depending
  on its ancestors' ``__init__``) is acyclic.

What the acyclic order bought: the engine is the plan operator, under
its historical name too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules() -> Dict[str, Path]:
    """Dotted module name → source file, for everything under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _repro_imports(
    name: str, path: Path, tree: ast.AST
) -> Iterator[Tuple[ast.stmt, List[str]]]:
    """Every import statement naming ``repro``, with its dotted targets.

    ``from repro.x import y`` yields both ``repro.x`` and ``repro.x.y``
    (the caller keeps whichever are modules).
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        targets = [t for t in targets if t == "repro" or t.startswith("repro.")]
        if targets:
            yield node, targets


def _nested_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside a def/class body or an ``if TYPE_CHECKING:``."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        guarded = isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test)
        if guarded or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_no_deferred_or_type_checking_repro_imports():
    offenders = []
    for name, path in _modules().items():
        tree = ast.parse(path.read_text())
        nested = _nested_lines(tree)
        for node, _ in _repro_imports(name, path, tree):
            if node.lineno in nested:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, (
        f"{len(offenders)} repro imports below module level or under "
        f"TYPE_CHECKING:\n" + "\n".join(offenders)
    )


def _graph() -> Dict[str, Set[str]]:
    """Module → modules its imports run.

    Importing ``a.b.c`` runs ``a/__init__`` and ``a/b/__init__`` first,
    so each import is an edge to its target and to every ancestor
    package of the target — except the importer's own ancestors, which
    are what is being imported when the importer runs.
    """
    modules = _modules()
    graph: Dict[str, Set[str]] = {}
    for name, path in modules.items():
        edges: Set[str] = set()
        for _, targets in _repro_imports(name, path, ast.parse(path.read_text())):
            for target in targets:
                while target:
                    if target in modules and not f"{name}.".startswith(f"{target}."):
                        edges.add(target)
                    target = target.rpartition(".")[0]
        graph[name] = edges
    return graph


def _cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components of more than one module (Tarjan)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    found: List[List[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph[node]):
            if succ not in index:
                visit(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = []
            while True:
                top = stack.pop()
                on_stack.discard(top)
                component.append(top)
                if top == node:
                    break
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return found


def test_module_graph_is_acyclic():
    cycles = _cycles(_graph())
    assert not cycles, "import cycles:\n" + "\n".join(
        " <-> ".join(cycle) for cycle in cycles
    )


def test_the_engine_is_the_plan_operator():
    import repro.core
    import repro.volcano

    assert repro.volcano.AssemblyOperator is repro.core.Assembly
