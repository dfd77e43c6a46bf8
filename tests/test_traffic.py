"""Every engine option is one some caller sets (``ast`` only).

An option nothing outside ``tests/`` sets has one value in use and is a
constant in disguise: it doubles the configurations the property suites
must sample, for a value no figure, example or workload measures.  For
the six classes the drivers are built from, every defaulted constructor
parameter must be *named* by at least one call site under ``src/``
(outside the class's own module), ``examples/`` or ``benchmarks/`` —

* as a keyword argument of a call to the class, or
* as a string key placed in a ``**kwargs`` dict that a call forwards
  (``kwargs["health"] = …``, ``kwargs.setdefault("spans", …)``,
  ``{"cache_capacity": 0}``), the way ``DeviceServer.register`` hands
  ``health`` and ``spans`` to every query's ``Assembly``.

The same rule holds for operators: every concrete ``VolcanoIterator``
subclass under ``src/repro`` must be named (called, subclassed or
referenced) by code under ``src/`` outside its own module and the
package ``__init__`` re-exports, ``examples/`` or ``benchmarks/``,
unless ``UNDRIVEN_OPERATORS`` says why it waits for a driver.

``tools/traffic_map.py`` is the measured companion: it runs the traffic
and lists the functions nothing called.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: class → (its module under src/repro, the names callers call it by).
CLASSES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "Assembly": ("core/assembly.py", ("Assembly", "AssemblyOperator")),
    "PipelinedAssembly": ("core/multidevice.py", ("PipelinedAssembly",)),
    "DeviceServer": ("service/device_server.py", ("DeviceServer",)),
    "DeviceServerAssembly": (
        "service/device_server.py", ("DeviceServerAssembly",)
    ),
    "AssemblyService": ("service/server.py", ("AssemblyService",)),
    "BufferManager": ("storage/buffer.py", ("BufferManager",)),
}


def _defaulted_parameters(path: Path, class_name: str) -> List[str]:
    """The constructor parameters of ``class_name`` that have defaults."""
    (cls,) = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    (init,) = [
        node
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    args = init.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return names


def _callee(call: ast.Call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _forwarders(trees: List[ast.AST], call_names: Tuple[str, ...]) -> Set[str]:
    """``call_names`` plus every function that hands its own ``**kwargs``
    to one of them (``DeviceServer.register`` → ``Assembly``), to a
    fixpoint.  Matched by bare name: an over-approximation, so the test
    can miss an unset option but never flags a set one."""
    names = set(call_names)
    functions = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.args.kwarg is not None
    ]
    grew = True
    while grew:
        grew = False
        for function in functions:
            if function.name in names:
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and _callee(node) in names
                    and any(
                        k.arg is None
                        and isinstance(k.value, ast.Name)
                        and k.value.id == function.args.kwarg.arg
                        for k in node.keywords
                    )
                ):
                    names.add(function.name)
                    grew = True
                    break
    return names


def _named(tree: ast.AST, callees: Set[str]) -> Set[str]:
    """Option names one file hands to the class: keywords of its calls
    (direct or through a forwarder), plus — when one of those calls
    unpacks a ``**kwargs`` — the string keys the file puts into dicts."""
    named: Set[str] = set()
    keys: Set[str] = set()
    forwards = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _callee(node) in callees:
                named.update(k.arg for k in node.keywords if k.arg)
                forwards = forwards or any(
                    k.arg is None for k in node.keywords
                )
            elif _callee(node) == "setdefault":
                keys.update(_strings(node.args[:1]))
        elif isinstance(node, ast.Dict):
            keys.update(_strings(node.keys))
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Store
        ):
            keys.update(_strings([node.slice]))
    return named | keys if forwards else named


def _strings(nodes) -> Set[str]:
    return {
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _call_site_files(own_module: Path) -> List[Path]:
    files = [p for p in sorted(SRC.rglob("*.py")) if p != own_module]
    for directory in ("examples", "benchmarks"):
        files += sorted((ROOT / directory).rglob("*.py"))
    return files


def test_every_defaulted_option_is_set_by_some_caller():
    unset = []
    for class_name, (module, call_names) in CLASSES.items():
        own = SRC / module
        trees = [
            ast.parse(path.read_text()) for path in _call_site_files(own)
        ]
        callees = _forwarders(
            trees + [ast.parse(own.read_text())], call_names
        )
        named: Set[str] = set()
        for tree in trees:
            named |= _named(tree, callees)
        unset += [
            f"{class_name}({parameter}=)"
            for parameter in _defaulted_parameters(own, class_name)
            if parameter not in named
        ]
    assert unset == [], (
        "options no call site outside tests/ sets (make each a constant "
        f"or wire it to a figure): {unset}"
    )


#: Operators kept without a driver, and why.
UNDRIVEN_OPERATORS: Dict[str, str] = {
    "ExternalSort": "ROADMAP item 9: the Section 2 figure drives it, or it goes",
    "StoreScan": "ROADMAP item 9: the Section 2 figure drives it, or it goes",
}


def _base_names(cls: ast.ClassDef) -> List[str]:
    return [
        getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases
    ]


def _is_abstract(cls: ast.ClassDef) -> bool:
    return any(
        getattr(decorator, "id", getattr(decorator, "attr", None))
        == "abstractmethod"
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
    )


def _operator_modules() -> Dict[str, Path]:
    """Concrete ``VolcanoIterator`` subclasses under ``src/repro``, by
    name, with the module each is defined in."""
    classes = {
        node.name: (node, path)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    operators = {"VolcanoIterator"}
    grew = True
    while grew:
        grew = False
        for name, (node, _path) in classes.items():
            if name not in operators and operators & set(_base_names(node)):
                operators.add(name)
                grew = True
    return {
        name: classes[name][1]
        for name in operators
        if name in classes and not _is_abstract(classes[name][0])
    }


def _referenced_names(path: Path) -> Set[str]:
    """Every name a file uses: bare names and attribute names (calls,
    base classes and plain references alike; imports do not count)."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_operator_is_named_by_a_driver():
    """An operator no figure, example, workload or library code names is
    a test fixture shipped as product: delete it or give it a driver."""
    operators = _operator_modules()
    assert set(UNDRIVEN_OPERATORS) <= set(operators), (
        "allow-listed operators that no longer exist: "
        f"{sorted(set(UNDRIVEN_OPERATORS) - set(operators))}"
    )
    files = [
        path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
    ]
    for directory in ("examples", "benchmarks"):
        files += sorted((ROOT / directory).rglob("*.py"))
    undriven = sorted(
        name
        for name, module in operators.items()
        if name not in UNDRIVEN_OPERATORS
        and not any(
            name in _referenced_names(path) for path in files if path != module
        )
    )
    assert undriven == [], (
        f"operators nothing outside tests/ names: {undriven}"
    )
