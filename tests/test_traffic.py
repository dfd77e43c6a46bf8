"""Every option is one some caller sets (``ast`` only).

An option nothing outside ``tests/`` sets has one value in use and is a
constant in disguise: it doubles the configurations the property suites
must sample, for a value no figure, example or workload measures.

**Holders** are read off the tree: every public class (its
constructor's parameters, or its fields when it is a dataclass), every
public method of one, and every public module-level function under
``src/repro``.  Three named rules take holders out, each held by its
own test below:

* *counters and results* — classes named ``*Stats``, ``*Metrics``,
  ``*Report``, ``*Result`` or ``Span``, with their methods: what they
  hold is measured, not chosen;
* *records* — a dataclass nothing under ``src/``, ``examples/`` or
  ``benchmarks/`` constructs outside its own module: its own module
  fills every field;
* *figure grids* — the drivers ``ALL_FIGURES`` registers and the
  sub-figures they call in their own module: their parameters are the
  figure's grid (ROADMAP item 3 turns them into settings).

Every defaulted option of every holder left must be *named* by at
least one call site under ``src/`` (outside the holder's own module),
``examples/`` or ``benchmarks/`` —

* as a keyword argument of a call to the holder, or
* as a positional argument of a direct call (``DeviceHealthTracker(n)``).

A call reaches a holder by its own name, by a module-level alias
(``AssemblyOperator = Assembly``), by ``super().__init__`` from a
subclass, or through a registry dispatch in ``REGISTRY_DISPATCH``, the
one case the tree does not show.  Calls are matched by bare name: an
over-approximation, so the rule can miss an unset option but never
flags a set one.  The call sites are indexed in one pass over the
session's cached trees.

Options travel by name only: no call under ``src/`` or ``examples/``
unpacks a ``**`` mapping, and no function there takes a ``**``
parameter, except the span-attribute sinks (the ``SpanRecorder``
methods taking ``**attrs``) and the ``HAND_ON`` functions, named by file
and qualified name, that hand their own ``**attrs`` straight to one.
Span attributes are recorded data, not options.  A forwarder would hide which options its callers really set
from the rule above, and would reject a misspelt option only where it
lands, not where it was passed.

``KEPT_FOR_TESTS`` names the few options kept on purpose, each with its
reason; it is exact, so an entry whose option goes or gains a caller
fails as well.

The same rule holds for operators: every concrete ``VolcanoIterator``
subclass under ``src/repro`` must be named (called, subclassed or
referenced) by code under ``src/`` outside its own module and the
package ``__init__`` re-exports, ``examples/`` or ``benchmarks/``,
unless ``UNDRIVEN_OPERATORS`` says why it waits for a driver.

``tools/traffic_map.py`` is the measured companion: it runs the traffic
and lists the functions nothing called, each beside its owner from
``results/traffic/owners.txt``.  The committed listing and table are
checked here: every listed function has an owner from the table's
closed vocabulary, every ``item N`` is an open ROADMAP item, and every
owner names a function that still exists and is still listed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from tests.source_index import (
    PACKAGE,
    ROOT,
    SourceFile,
    package,
    source,
    sources,
)

#: Where call sites that count live.
CALLERS = ("src", "examples", "benchmarks")

#: Class-name suffixes (and one name) of counters and results.
COUNTER_SUFFIXES = ("Stats", "Metrics", "Report", "Result")
COUNTER_NAMES = frozenset({"Span"})

#: Dispatcher function → the module-level registry dict it calls an
#: entry of (``SCHEDULERS[name](…)``): a call to the dispatcher counts
#: as a call to every class the registry holds.
REGISTRY_DISPATCH: Dict[str, str] = {"make_scheduler": "SCHEDULERS"}

#: The module holding ``ALL_FIGURES``.
FIGURE_REGISTRY = PACKAGE / "bench" / "figures.py"

_FAULT_PATH = "a fault-path knob: ROADMAP item 2's crash and fault sweeps drive it"
_SKETCH = (
    "tests/cluster/test_sketch_equivalence.py samples it; ROADMAP item 8 "
    "decides the sketch"
)
_SECTION_2 = "ROADMAP item 10: the Section 2 figure drives sort and heap, or they go"
_CLI = "set from the command line by the module's own main()"
_CHOOSER = (
    "ROADMAP item 11: the estimate-vs-engine figure drives the chooser, "
    "or it goes"
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
    "HeapFile.extent_pages": _SECTION_2,
    "ExternalSort.run_capacity": _SECTION_2,
    "ExternalSort.store": _SECTION_2,
    "ExternalSort.reverse": _SECTION_2,
    "AssemblyService.submit.retry_policy": _FAULT_PATH,
    "AssemblyService.submit.on_fault": _FAULT_PATH,
    "plan_assembly_join.pages_spanned": _CHOOSER,
    "plan_assembly_join.window_size": _CHOOSER,
    "SpanRecorder.add.parent": (
        "event, in the same module, records its instant under its caller's "
        "parent through add"
    ),
    "build_assembly.spans": (
        "trace_experiment, in the same module, passes its recorder "
        "(python -m repro.bench --trace-out)"
    ),
    "DeviceServer.starvation_bound": (
        "DeviceServerAssembly, in the same module, turns the override off "
        "with None; the starvation tests sweep the bound"
    ),
    "main.argv": f"{_CLI} (sys.argv); tests pass it in its place",
    "compare_files.tolerance": f"{_CLI}: --tolerance",
    "compare_documents.tolerance": f"{_CLI}: --tolerance",
}

#: The 30 holders of the hand-kept table this rule replaced: the
#: derived set must keep covering each of them.
FORMER_HOLDERS = (
    "Assembly", "PipelinedAssembly", "DeviceServer", "DeviceServerAssembly",
    "AssemblyService", "BufferManager", "RequestSpec", "open_loop_workload",
    "ShardReplica", "Shard", "AssemblyService.submit", "AdmissionController",
    "AdmissionController.submit", "SheddingPolicy", "SLOTracker",
    "HedgePolicy", "ReorgPolicy", "ConsistentHashRouter", "Unclustered",
    "FaultConfig", "RetryPolicy", "DeviceHealthTracker",
    "AdaptiveElevatorScheduler", "StreamingHistogram", "HashAggregate",
    "Database", "Optimizer", "ParallelAssembly", "InterleavedAssemblies",
    "StackedAssembly",
)


@dataclass(frozen=True)
class Holder:
    """One option holder: a constructor, a method or a function."""

    name: str  # "Class", "Class.method" or "function"
    module: Path
    ordered: Tuple[str, ...]  # every parameter, in positional order
    defaulted: Tuple[str, ...]
    dataclass: bool = False


def _bare(node: ast.AST) -> Optional[str]:
    """The bare name of a ``Name`` or ``Attribute``."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """``@dataclass`` or ``@dataclass(...)``, by bare name."""
    return any(
        _bare(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list
    )


def _function_parameters(
    function: ast.FunctionDef, skip_first: bool
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(every parameter in positional order, the defaulted ones)``."""
    args = function.args
    positional = args.posonlyargs + args.args
    if skip_first:
        positional = positional[1:]  # self or cls
    ordered = [a.arg for a in positional + args.kwonlyargs]
    defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    defaulted += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return tuple(ordered), tuple(defaulted)


def _fields(cls: ast.ClassDef) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(fields in order, the defaulted ones)`` of a dataclass."""
    fields = [
        statement
        for statement in cls.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and "ClassVar" not in ast.unparse(statement.annotation)
    ]
    return (
        tuple(field.target.id for field in fields),
        tuple(field.target.id for field in fields if field.value is not None),
    )


def _is_static(function: ast.FunctionDef) -> bool:
    return any(_bare(d) == "staticmethod" for d in function.decorator_list)


def _module_holders(file: SourceFile) -> Iterator[Holder]:
    """Every public class, public method and public module-level
    function one module defines."""
    for node in file.tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield Holder(node.name, file.path, *_function_parameters(node, False))
        elif isinstance(node, ast.ClassDef):
            methods = [s for s in node.body if isinstance(s, ast.FunctionDef)]
            init = [m for m in methods if m.name == "__init__"]
            if _is_dataclass(node):
                yield Holder(node.name, file.path, *_fields(node), dataclass=True)
            elif init:
                yield Holder(
                    node.name, file.path, *_function_parameters(init[0], True)
                )
            else:  # no constructor of its own: nothing to set
                yield Holder(node.name, file.path, (), ())
            for method in methods:
                if not method.name.startswith("_"):
                    yield Holder(
                        f"{node.name}.{method.name}",
                        file.path,
                        *_function_parameters(method, not _is_static(method)),
                    )


@lru_cache(maxsize=None)
def all_holders() -> Tuple[Holder, ...]:
    """Every holder under ``src/repro``, before the exclusion rules."""
    return tuple(h for file in package() for h in _module_holders(file))


# -- the call-site index ----------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call: where it is and which option names it hands over."""

    path: Path
    keywords: FrozenSet[str]
    positional: Optional[int]  # None when it unpacks ``*args``


@dataclass
class CallIndex:
    """Every call site under ``CALLERS``, by bare callee name."""

    calls: Dict[str, List[CallSite]]
    aliases: Dict[str, Set[str]]  # name → module-level aliases of it


def _with_bases(tree: ast.Module) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Every node with the base names of its innermost enclosing class
    (what ``super().__init__`` there reaches)."""
    stack: List[Tuple[ast.AST, Tuple[str, ...]]] = [(tree, ())]
    while stack:
        node, bases = stack.pop()
        yield node, bases
        if isinstance(node, ast.ClassDef):
            bases = tuple(_bare(base) for base in node.bases)
        stack += [(child, bases) for child in ast.iter_child_nodes(node)]


def _is_super_init(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _bare(func.value.func) == "super"
    )


@lru_cache(maxsize=None)
def call_index() -> CallIndex:
    """One pass over every caller file's cached tree."""
    index = CallIndex({}, {})
    for file in sources(*CALLERS):
        for node, bases in _with_bases(file.tree):
            if isinstance(node, ast.Call):
                site = CallSite(
                    file.path,
                    frozenset(k.arg for k in node.keywords if k.arg),
                    None
                    if any(isinstance(a, ast.Starred) for a in node.args)
                    else len(node.args),
                )
                callees = bases if _is_super_init(node) else (_bare(node.func),)
                for callee in callees:
                    index.calls.setdefault(callee, []).append(site)
        for node in file.tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                index.aliases.setdefault(node.value.id, set()).add(
                    node.targets[0].id
                )
    return index


def _registry_classes(dispatcher: str, registry: str) -> Set[str]:
    """The classes ``registry`` (a module-level value) holds, when
    ``dispatcher`` is a function of the same module that subscripts it;
    empty when the dispatch is not there."""
    for file in package():
        body = file.tree.body
        functions = {n.name: n for n in body if isinstance(n, ast.FunctionDef)}
        classes = {n.name for n in body if isinstance(n, ast.ClassDef)}
        values = [
            node.value
            for node in body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and registry
            in [
                _bare(t)
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            ]
        ]
        if dispatcher in functions and values and any(
            isinstance(node, ast.Subscript) and _bare(node.value) == registry
            for node in ast.walk(functions[dispatcher])
        ):
            return {
                node.id
                for node in ast.walk(values[0])
                if isinstance(node, ast.Name) and node.id in classes
            }
    return set()


def _call_names(holder: Holder) -> Tuple[Set[str], Set[str]]:
    """``(names a direct call uses, names any call uses)``: the direct
    ones fill parameters by position too."""
    own = holder.name.rpartition(".")[2]
    direct = {own} | call_index().aliases.get(own, set())
    dispatchers = {
        dispatcher
        for dispatcher, registry in REGISTRY_DISPATCH.items()
        if own in _registry_classes(dispatcher, registry)
    }
    return direct, direct | dispatchers


def _named(holder: Holder) -> Set[str]:
    """Option names the call sites outside the holder's module hand it."""
    index = call_index()
    direct, callees = _call_names(holder)
    named: Set[str] = set()
    for callee in callees:
        for site in index.calls.get(callee, ()):
            if site.path == holder.module:
                continue
            named |= site.keywords
            if callee in direct and site.positional is not None:
                named.update(holder.ordered[: site.positional])
    return named


# -- the named exclusion rules ----------------------------------------------


def is_counter(class_name: str) -> bool:
    """Counters and results: what they hold is measured, not chosen."""
    return class_name in COUNTER_NAMES or class_name.endswith(COUNTER_SUFFIXES)


@lru_cache(maxsize=None)
def records() -> FrozenSet[str]:
    """Dataclasses no call site outside their own module constructs."""
    index = call_index()
    return frozenset(
        holder.name
        for holder in all_holders()
        if holder.dataclass
        and not any(
            site.path != holder.module
            for name in _call_names(holder)[0]
            for site in index.calls.get(name, ())
        )
    )


@lru_cache(maxsize=None)
def figure_grids() -> FrozenSet[Tuple[Path, str]]:
    """``(module, function)`` of every driver ``ALL_FIGURES`` registers,
    and of every module-level function a driver calls in its module."""
    tree = source(FIGURE_REGISTRY).tree
    (registry,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [_bare(t) for t in node.targets] == ["ALL_FIGURES"]
    ]
    modules = {
        alias.asname or alias.name: PACKAGE.joinpath(
            *node.module.split(".")[1:]
        ).with_suffix(".py")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    grids: Set[Tuple[Path, str]] = set()
    for value in registry.values:
        driver = value.id
        module = modules.get(driver, FIGURE_REGISTRY)
        functions = {
            node.name: node
            for node in source(module).tree.body
            if isinstance(node, ast.FunctionDef)
        }
        grids.add((module, driver))
        grids.update(
            (module, node.func.id)
            for node in ast.walk(functions[driver])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in functions
        )
    return frozenset(grids)


def holders() -> List[Holder]:
    """The holders the rule checks: every one the three rules leave."""
    grids = figure_grids()
    return [
        holder
        for holder in all_holders()
        if not is_counter(holder.name.partition(".")[0])
        and holder.name not in records()
        and (holder.module, holder.name) not in grids
    ]


@lru_cache(maxsize=None)
def unset_options() -> Tuple[str, ...]:
    """``Holder.option`` for every defaulted option of every holder that
    no call site outside ``tests/`` (and outside its own module) sets."""
    unset = []
    for holder in holders():
        if holder.defaulted:
            named = _named(holder)
            unset += [
                f"{holder.name}.{option}"
                for option in holder.defaulted
                if option not in named
            ]
    return tuple(unset)


def test_every_defaulted_option_is_set_by_some_caller():
    unexplained = [
        option for option in unset_options() if option not in KEPT_FOR_TESTS
    ]
    assert unexplained == [], (
        "options no call site outside tests/ sets (make each a constant "
        f"or wire it to a figure): {unexplained}"
    )


def test_kept_for_tests_names_only_options_still_unset():
    """An allow-listed option that is gone, or that a caller now sets,
    leaves the list: it no longer needs the exemption."""
    stale = sorted(set(KEPT_FOR_TESTS) - set(unset_options()))
    assert stale == [], (
        f"KEPT_FOR_TESTS entries that no longer exist or gained a caller: "
        f"{stale}"
    )


def test_the_derived_holders_cover_the_former_table():
    names = {holder.name for holder in holders()}
    assert sorted(set(FORMER_HOLDERS) - names) == []


def test_counters_and_results_are_not_holders():
    for name in ("ServiceMetrics", "PipelineStats", "FabricReport",
                 "FigureResult", "LayoutResult", "Span"):
        assert is_counter(name), name
    for name in ("SpanRecorder", "StatsSink", "ResultCache", "Spanner"):
        assert not is_counter(name), name
    checked = {holder.name for holder in holders()}
    assert "ServiceMetrics" not in checked and "SpanRecorder" in checked


def test_records_are_the_dataclasses_only_their_module_builds():
    found = records()
    assert {
        "ReorgRound", "MigrationPlan", "ComplexObjectState", "TraceEvent",
        "AdmissionTicket", "ACOBDatabase",
    } <= found
    # Constructed by callers elsewhere (or not a dataclass): holders.
    assert not {"FaultConfig", "RequestSpec", "ReorgPolicy", "Assembly"} & found


def test_figure_grids_are_the_registered_drivers_and_their_sub_figures():
    grids = {name for _module, name in figure_grids()}
    assert {"figure_11", "figure_fabric", "figure_volcano"} <= grids
    assert not {"build_sharded_fabric", "build_layout"} & grids
    # A sub-figure is one the driver calls in the driver's own module.
    (module,) = {m for m, name in figure_grids() if name == "figure_fabric"}
    assert module == PACKAGE / "bench" / "fabric.py"


def test_each_registry_dispatch_is_real():
    """``REGISTRY_DISPATCH`` stays small and names only dispatches the
    tree really makes."""
    assert len(REGISTRY_DISPATCH) <= 3
    for dispatcher, registry in REGISTRY_DISPATCH.items():
        assert _registry_classes(dispatcher, registry), (dispatcher, registry)
    assert not _registry_classes("make_scheduler", "ALL_FIGURES")


def test_call_names_are_derived():
    """Aliases, ``super().__init__`` and the registry dispatch each
    reach their holder."""
    by_name = {holder.name: holder for holder in all_holders()}
    assert "AssemblyOperator" in _call_names(by_name["Assembly"])[0]
    assert "make_scheduler" in _call_names(
        by_name["AdaptiveElevatorScheduler"]
    )[1]
    # ParallelAssembly hands PipelinedAssembly its options by super().
    assert any(
        site.path == PACKAGE / "volcano" / "assembly.py"
        for site in call_index().calls["PipelinedAssembly"]
    )


# -- options travel by name ---------------------------------------------------

#: Where the no-``**`` rule looks.
NAMED_OPTION_CALLERS = ("src", "examples")

#: Where the span-attribute sinks are defined.
SPANS = "src/repro/obs/spans.py"

#: The functions that hand their own ``**attrs`` straight on, as
#: ``**``, into a sink, by file and qualified name: the one other place
#: a ``**`` may stand.
HAND_ON = frozenset(
    {
        f"{SPANS}:SpanRecorder.event",
        "src/repro/core/assembly.py:Assembly._end_slot_span",
    }
)


@lru_cache(maxsize=None)
def span_sinks() -> FrozenSet[str]:
    """The ``SpanRecorder`` methods taking ``**attrs``: they record
    their mapping as span attributes."""
    (recorder,) = [
        node
        for node in source(ROOT / SPANS).tree.body
        if isinstance(node, ast.ClassDef) and node.name == "SpanRecorder"
    ]
    return frozenset(
        method.name
        for method in recorder.body
        if isinstance(method, ast.FunctionDef) and method.args.kwarg is not None
    )


def _functions(
    node: ast.AST, prefix: str = ""
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Every function under ``node``, with its qualified name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def _mapping_lines(where: str, tree: ast.Module) -> Tuple[List[int], Set[str]]:
    """Lines of every ``**`` in the module at ``where`` that is not span
    attributes, and the ``HAND_ON`` functions it holds.

    A ``**`` may stand only in a sink's own parameters, and in a
    ``HAND_ON`` function's parameters when every use of them is a
    ``**`` into a sink call, which is then no option mapping either."""
    sinks = span_sinks()
    own = {f"{SPANS}:SpanRecorder.{sink}" for sink in sinks}
    lines = []
    found = set()
    handed_on: Set[int] = set()
    for qualname, function in _functions(tree):
        key = f"{where}:{qualname}"
        if function.args.kwarg is None or (key in own and key not in HAND_ON):
            continue
        if key not in HAND_ON:
            lines.append(function.lineno)
            continue
        found.add(key)
        name = function.args.kwarg.arg
        calls = [
            (call, keyword.value)
            for call in ast.walk(function)
            if isinstance(call, ast.Call) and _bare(call.func) in sinks
            for keyword in call.keywords
            if keyword.arg is None
        ]
        uses = [
            use
            for use in ast.walk(function)
            if isinstance(use, ast.Name) and use.id == name
        ]
        if not uses or not {id(use) for use in uses} <= {
            id(value) for _, value in calls
        }:
            lines.append(function.lineno)
        handed_on |= {
            id(call)
            for call, value in calls
            if isinstance(value, ast.Name) and value.id == name
        }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in handed_on:
            lines += [node.lineno for k in node.keywords if k.arg is None]
    return sorted(lines), found


def test_options_travel_by_name():
    """No ``**`` forwarder: each option is a named parameter where it is
    taken, so a misspelt one fails at the call and the rule above sees
    who sets what."""
    assert span_sinks() == {"begin", "add", "event", "end"}
    found = []
    held: Set[str] = set()
    for file in sources(*NAMED_OPTION_CALLERS):
        where = str(file.path.relative_to(ROOT))
        lines, hand_on = _mapping_lines(where, file.tree)
        found += [f"{where}:{line}" for line in lines]
        held |= hand_on
    assert found == [], f"** option mappings (name each option): {found}"
    assert held == HAND_ON  # exact: an entry whose function goes fails


def test_the_named_option_rule_bites():
    """A forwarding parameter, its unpacking call, a literal mapping, an
    unused ``**`` parameter and a ``**`` into a method that shares a
    sink's name are caught; the ``HAND_ON`` functions pass."""
    tree = ast.parse(
        "def submit(roots, **options):\n"
        "    register(roots, **options)\n"
        "class SpanRecorder:\n"
        "    def event(self, name, **attrs):\n"
        "        return self.add(name, 0, 0, **attrs)\n"
        "def window(part):\n"
        "    register(part, **{'window_size': 4})\n"
        "def unused(**options):\n"
        "    pass\n"
        "def grow(self, **options):\n"
        "    self.pool.add(**options)\n"
        "def stamp(span):\n"
        "    recorder.end(span, **{'outcome': 'x'})\n"
    )
    lines, found = _mapping_lines(SPANS, tree)
    assert lines == [1, 2, 7, 8, 10, 11, 13]
    assert found == {f"{SPANS}:SpanRecorder.event"}


#: Operators kept without a driver, and why.
UNDRIVEN_OPERATORS: Dict[str, str] = {
    "ExternalSort": "ROADMAP item 10: the Section 2 figure drives it, or it goes",
    "StoreScan": "ROADMAP item 10: the Section 2 figure drives it, or it goes",
}


def _is_abstract(cls: ast.ClassDef) -> bool:
    return any(
        _bare(decorator) == "abstractmethod"
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
    )


def _operator_modules() -> Dict[str, Path]:
    """Concrete ``VolcanoIterator`` subclasses under ``src/repro``, by
    name, with the module each is defined in."""
    classes = {
        node.name: (node, file.path)
        for file in package()
        for node in file.nodes
        if isinstance(node, ast.ClassDef)
    }
    operators = {"VolcanoIterator"}
    grew = True
    while grew:
        grew = False
        for name, (node, _path) in classes.items():
            if name not in operators and operators & {
                _bare(base) for base in node.bases
            }:
                operators.add(name)
                grew = True
    return {
        name: classes[name][1]
        for name in operators
        if name in classes and not _is_abstract(classes[name][0])
    }


def test_every_operator_is_named_by_a_driver():
    """An operator no figure, example, workload or library code names is
    a test fixture shipped as product: delete it or give it a driver."""
    operators = _operator_modules()
    assert set(UNDRIVEN_OPERATORS) <= set(operators), (
        "allow-listed operators that no longer exist: "
        f"{sorted(set(UNDRIVEN_OPERATORS) - set(operators))}"
    )
    files = [
        file
        for file in sources(*CALLERS)
        if not (file.path.is_relative_to(PACKAGE) and file.path.name == "__init__.py")
    ]
    undriven = sorted(
        name
        for name, module in operators.items()
        if name not in UNDRIVEN_OPERATORS
        and not any(name in file.names for file in files if file.path != module)
    )
    assert undriven == [], (
        f"operators nothing outside tests/ names: {undriven}"
    )


# -- every uncalled function has an owner -------------------------------------

#: The traffic map's committed listing and its owner table.
UNCALLED = ROOT / "results" / "traffic" / "uncalled.txt"
OWNERS = ROOT / "results" / "traffic" / "owners.txt"

_MODULE_ROW = re.compile(r"^(\S+\.py)  \d+ / \d+$")
_FUNCTION_ROW = re.compile(r"^ +\d+  (\S+)  \d+  (.+)$")
#: The closed vocabulary; group 1 is an item's number.
_OWNER = re.compile(
    r"^(?:item (\d+): \S.*|interface|tracer name|safety: \S.*)$"
)


def listed_owners(listing: str) -> Dict[str, str]:
    """``module:Qualified.name -> printed owner`` of the listing."""
    found: Dict[str, str] = {}
    module = ""
    for line in listing.splitlines():
        header = _MODULE_ROW.match(line)
        row = _FUNCTION_ROW.match(line)
        if header:
            module = header.group(1)
        elif row:
            found[f"{module}:{row.group(1)}"] = row.group(2)
    return found


def owner_table(table: str) -> Dict[str, str]:
    """``module:Qualified.name -> owner`` of the table (``#`` lines
    are its header)."""
    return dict(
        line.split(None, 1)
        for line in table.splitlines()
        if line.strip() and not line.startswith("#")
    )


def open_items(roadmap: str) -> FrozenSet[int]:
    """The numbered entries under ROADMAP's ``### Items``."""
    items = roadmap.split("### Items", 1)[1].split("\n### ", 1)[0]
    return frozenset(
        int(number) for number in re.findall(r"^(\d+)\. \*\*", items, re.M)
    )


@lru_cache(maxsize=None)
def defined_functions() -> FrozenSet[str]:
    """``module:Qualified.name`` of every function under ``src/repro``."""
    return frozenset(
        f"{file.path.relative_to(PACKAGE).as_posix()}:{name}"
        for file in package()
        for name, _function in _functions(file.tree)
    )


def owner_problems(
    listing: Dict[str, str],
    table: Dict[str, str],
    items: FrozenSet[int],
    defined: FrozenSet[str],
) -> List[str]:
    """Every way the listing, the table, the items and the tree
    disagree."""
    problems = [
        f"{key}: UNOWNED" if key not in table else f"{key}: listed as "
        f"{printed!r}, owned as {table[key]!r}"
        for key, printed in listing.items()
        if table.get(key) != printed
    ]
    for key, owner in table.items():
        vocabulary = _OWNER.match(owner)
        if vocabulary is None:
            problems.append(f"{key}: {owner!r} is not in the vocabulary")
        elif vocabulary.group(1) and int(vocabulary.group(1)) not in items:
            problems.append(f"{key}: item {vocabulary.group(1)} is not open")
        if key not in defined:
            problems.append(f"{key}: no such function")
        elif key not in listing:
            problems.append(f"{key}: not listed as uncalled (stale owner)")
    return problems


def test_every_uncalled_function_has_an_owner():
    problems = owner_problems(
        listed_owners(UNCALLED.read_text()),
        owner_table(OWNERS.read_text()),
        open_items((ROOT / "ROADMAP.md").read_text()),
        defined_functions(),
    )
    assert problems == [], problems


def test_the_owner_check_bites():
    """A missing owner, a closed item, a name outside the vocabulary
    and an owner whose function went (or gained a caller) each fail."""
    listing = {
        "a.py:f": "item 1: x",
        "a.py:g": "UNOWNED",
        "a.py:C.h": "interface",
    }
    table = {
        "a.py:f": "item 1: x",
        "a.py:C.h": "item 13: y",
        "a.py:gone": "safety: z",
        "a.py:called": "because",
    }
    defined = frozenset({"a.py:f", "a.py:g", "a.py:C.h", "a.py:called"})
    assert owner_problems(listing, table, frozenset({1}), defined) == [
        "a.py:g: UNOWNED",
        "a.py:C.h: listed as 'interface', owned as 'item 13: y'",
        "a.py:C.h: item 13 is not open",
        "a.py:gone: no such function",
        "a.py:called: 'because' is not in the vocabulary",
        "a.py:called: not listed as uncalled (stale owner)",
    ]
    assert {13, 14} & open_items((ROOT / "ROADMAP.md").read_text()) == set()
