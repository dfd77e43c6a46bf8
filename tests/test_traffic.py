"""Every option is one some caller sets (``ast`` only).

An option nothing outside ``tests/`` sets has one value in use and is a
constant in disguise: it doubles the configurations the property suites
must sample, for a value no figure, example or workload measures.  For
every holder in ``HOLDERS`` — the six classes the drivers are built
from, the request path from the fabric down to admission, the policy
objects and the helper operators — every defaulted option (a
constructor or function parameter, or a dataclass field) must be
*named* by at least one call site under ``src/`` (outside the holder's
own module), ``examples/`` or ``benchmarks/`` —

* as a keyword argument of a call to the holder,
* as a positional argument of a direct call (``DeviceHealthTracker(n)``),
  or
* as a string key placed in a ``**kwargs`` dict that a call forwards
  (``kwargs["health"] = …``, ``kwargs.setdefault("spans", …)``,
  ``{"cache_capacity": 0}``), the way ``DeviceServer.register`` hands
  ``health`` and ``spans`` to every query's ``Assembly``.

``KEPT_FOR_TESTS`` names the few options kept on purpose, each with its
reason; it is exact, so an entry whose option goes or gains a caller
fails as well.  Counters and results (``*Stats``, ``*Metrics``,
``*Report``, ``Span``) are not options and are not holders.

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
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Option holder → (its module under src/repro, the names callers call
#: it by).  A holder is a class (its constructor's parameters, or its
#: fields when it is a dataclass), a ``Class.method`` or a module-level
#: function.
HOLDERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # The drivers.
    "Assembly": ("core/assembly.py", ("Assembly", "AssemblyOperator")),
    "PipelinedAssembly": ("core/multidevice.py", ("PipelinedAssembly",)),
    "DeviceServer": ("service/device_server.py", ("DeviceServer",)),
    "DeviceServerAssembly": (
        "service/device_server.py", ("DeviceServerAssembly",)
    ),
    "AssemblyService": ("service/server.py", ("AssemblyService",)),
    "BufferManager": ("storage/buffer.py", ("BufferManager",)),
    # The request path: fabric → replica → service → admission.
    "RequestSpec": ("fabric/fabric.py", ("RequestSpec",)),
    "open_loop_workload": ("fabric/builder.py", ("open_loop_workload",)),
    "ShardReplica": ("fabric/fabric.py", ("ShardReplica",)),
    "Shard": ("fabric/fabric.py", ("Shard",)),
    "AssemblyService.submit": ("service/server.py", ("submit",)),
    "AdmissionController": (
        "service/admission.py", ("AdmissionController",)
    ),
    "AdmissionController.submit": ("service/admission.py", ("submit",)),
    # The policy objects.
    "SheddingPolicy": ("fabric/fabric.py", ("SheddingPolicy",)),
    "SLOTracker": ("obs/slo.py", ("SLOTracker",)),
    "HedgePolicy": ("fabric/fabric.py", ("HedgePolicy",)),
    "ReorgPolicy": ("cluster/reorg.py", ("ReorgPolicy",)),
    "ConsistentHashRouter": (
        "fabric/router.py", ("ConsistentHashRouter",)
    ),
    "Unclustered": ("cluster/policies.py", ("Unclustered",)),
    "FaultConfig": ("storage/faults.py", ("FaultConfig",)),
    "RetryPolicy": ("storage/faults.py", ("RetryPolicy",)),
    "DeviceHealthTracker": ("storage/faults.py", ("DeviceHealthTracker",)),
    # The helper operators.
    "AdaptiveElevatorScheduler": (
        "core/schedulers.py", ("AdaptiveElevatorScheduler", "make_scheduler")
    ),
    "StreamingHistogram": ("obs/histograms.py", ("StreamingHistogram",)),
    "HashAggregate": ("volcano/aggregate.py", ("HashAggregate",)),
    "Database": ("database.py", ("Database",)),
    "Optimizer": ("query/optimizer.py", ("Optimizer",)),
    "ParallelAssembly": ("volcano/assembly.py", ("ParallelAssembly",)),
    "InterleavedAssemblies": (
        "volcano/assembly.py", ("InterleavedAssemblies",)
    ),
    "StackedAssembly": ("core/stacking.py", ("StackedAssembly",)),
}

_FAULT_PATH = "a fault-path knob: ROADMAP item 2's crash and fault sweeps drive it"
_SKETCH = (
    "tests/cluster/test_sketch_equivalence.py samples it; ROADMAP item 8 "
    "decides the sketch"
)

#: Options kept although only tests set them, and why.  The list is
#: exact: an entry whose option disappears or gains a caller fails too.
KEPT_FOR_TESTS: Dict[str, str] = {
    "FaultConfig.latency_spike_ms": _FAULT_PATH,
    "FaultConfig.down_intervals": _FAULT_PATH,
    "FaultConfig.always_fail_pages": _FAULT_PATH,
    "RetryPolicy.base_backoff_ms": _FAULT_PATH,
    "RetryPolicy.backoff_multiplier": _FAULT_PATH,
    "DeviceHealthTracker.failure_threshold": _FAULT_PATH,
    "DeviceHealthTracker.cooldown": _FAULT_PATH,
    "ReorgPolicy.migration_retries": _FAULT_PATH,
    "ReorgPolicy.group_capacity": _SKETCH,
    "ReorgPolicy.prune_epsilon": _SKETCH,
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """``@dataclass`` or ``@dataclass(...)``, by bare name."""
    targets = [getattr(d, "func", d) for d in cls.decorator_list]
    return any(
        getattr(target, "id", getattr(target, "attr", None)) == "dataclass"
        for target in targets
    )


def _function_parameters(
    function: ast.FunctionDef, is_method: bool
) -> Tuple[List[str], List[str]]:
    """``(every parameter in positional order, the defaulted ones)``."""
    args = function.args
    positional = args.posonlyargs + args.args
    if is_method:
        positional = positional[1:]  # self
    ordered = [a.arg for a in positional + args.kwonlyargs]
    defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    defaulted += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return ordered, defaulted


def _parameters(tree: ast.AST, holder: str) -> Tuple[List[str], List[str]]:
    """``(ordered parameters, defaulted ones)`` of one holder: a class's
    constructor (a dataclass's fields), a method or a function."""
    name, _, method = holder.partition(".")
    (node,) = [
        node
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name == name
    ]
    if isinstance(node, ast.FunctionDef):
        return _function_parameters(node, is_method=False)
    if not method and _is_dataclass(node):
        fields = [
            statement
            for statement in node.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)
        ]
        return (
            [field.target.id for field in fields],
            [field.target.id for field in fields if field.value is not None],
        )
    functions = [
        statement
        for statement in node.body
        if isinstance(statement, ast.FunctionDef)
        and statement.name == (method or "__init__")
    ]
    if not functions and not method:
        return [], []  # no constructor of its own: nothing to set
    (function,) = functions
    return _function_parameters(function, is_method=True)


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


def _named(
    tree: ast.AST, callees: Set[str], own_name: str, ordered: List[str]
) -> Set[str]:
    """Option names one file hands to the holder: keywords of its calls
    (direct or through a forwarder), the parameters a direct call fills
    by position, plus — when one of those calls unpacks a ``**kwargs``
    — the string keys the file puts into dicts."""
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
                if _callee(node) == own_name and not any(
                    isinstance(arg, ast.Starred) for arg in node.args
                ):
                    named.update(ordered[: len(node.args)])
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


@lru_cache(maxsize=None)
def _trees() -> Dict[Path, ast.AST]:
    """Every file that may hold a call site (and every module under
    ``src/repro``), parsed once."""
    files = sorted(SRC.rglob("*.py"))
    for directory in ("examples", "benchmarks"):
        files += sorted((ROOT / directory).rglob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files}


@lru_cache(maxsize=None)
def _unset_options() -> Tuple[str, ...]:
    """``Holder.option`` for every defaulted option of every holder that
    no call site outside ``tests/`` (and outside its own module) sets."""
    trees = _trees()
    unset = []
    for holder, (module, call_names) in HOLDERS.items():
        own = SRC / module
        ordered, defaulted = _parameters(trees[own], holder)
        callers = [tree for path, tree in trees.items() if path != own]
        callees = _forwarders(list(trees.values()), call_names)
        own_name = holder.rpartition(".")[2]
        named: Set[str] = set()
        for tree in callers:
            named |= _named(tree, callees, own_name, ordered)
        unset += [
            f"{holder}.{option}" for option in defaulted if option not in named
        ]
    return tuple(unset)


def test_every_defaulted_option_is_set_by_some_caller():
    unexplained = [
        option for option in _unset_options() if option not in KEPT_FOR_TESTS
    ]
    assert unexplained == [], (
        "options no call site outside tests/ sets (make each a constant "
        f"or wire it to a figure): {unexplained}"
    )


def test_kept_for_tests_names_only_options_still_unset():
    """An allow-listed option that is gone, or that a caller now sets,
    leaves the list: it no longer needs the exemption."""
    stale = sorted(set(KEPT_FOR_TESTS) - set(_unset_options()))
    assert stale == [], (
        f"KEPT_FOR_TESTS entries that no longer exist or gained a caller: "
        f"{stale}"
    )


#: Operators kept without a driver, and why.
UNDRIVEN_OPERATORS: Dict[str, str] = {
    "ExternalSort": "ROADMAP item 10: the Section 2 figure drives it, or it goes",
    "StoreScan": "ROADMAP item 10: the Section 2 figure drives it, or it goes",
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
