"""Static audit: the trace-kind registry and its call sites agree.

The engine records a decision by passing a kind constant as the first
argument of a recording call — ``Assembly._decide`` or, for the
emitted/aborted outcome that closes a window slot,
``Assembly._end_slot_span`` — and nothing checks the kind at runtime.
This audit walks every source file's AST instead: every
``trace.<CONST>`` the code mentions must be registered in ``KINDS``
(``trace.DECISION``, the span kind the decisions are recorded under,
is not a trace kind), and every registered kind must actually be
passed to a recording call — no typo'd constants, no dead registry
entries.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.core import trace

SRC = Path(__file__).parent.parent.parent / "src" / "repro"

#: The calls that record a decision, its kind first.
RECORDING_CALLS = ("_decide", "_end_slot_span")


def iter_source_trees():
    """(path, parsed module) for every file under src/repro."""
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def trace_constants_used():
    """Every UPPERCASE attribute read off the ``trace`` module."""
    used = {}
    for path, tree in iter_source_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "trace"
                and node.attr.isupper()
                and node.attr != "DECISION"
            ):
                used.setdefault(node.attr, []).append(
                    f"{path.name}:{node.lineno}"
                )
    return used


def recorded_kinds():
    """Kind constants passed as the first argument of a recording call."""
    emitted = set()
    for _path, tree in iter_source_trees():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RECORDING_CALLS
                and node.args
            ):
                continue
            first = node.args[0]
            if (
                isinstance(first, ast.Attribute)
                and isinstance(first.value, ast.Name)
                and first.value.id == "trace"
            ):
                emitted.add(first.attr)
            elif isinstance(first, ast.IfExp):
                for branch in (first.body, first.orelse):
                    if isinstance(branch, ast.Attribute):
                        emitted.add(branch.attr)
    return emitted


class TestKindsAudit:
    def test_registry_matches_module_constants(self):
        """KINDS lists exactly the module's uppercase string constants."""
        declared = {
            name
            for name, value in vars(trace).items()
            if name.isupper() and isinstance(value, str)
            and name not in ("KINDS", "DECISION")
        }
        assert {getattr(trace, name) for name in declared} == set(trace.KINDS)
        assert len(trace.KINDS) == len(set(trace.KINDS))
        assert trace.DECISION not in trace.KINDS

    def test_every_used_constant_is_registered(self):
        used = trace_constants_used()
        unknown = {
            name: sites
            for name, sites in used.items()
            if getattr(trace, name, None) not in trace.KINDS
        }
        assert not unknown, f"unregistered trace kinds referenced: {unknown}"

    def test_every_registered_kind_is_emitted(self):
        emitted = {getattr(trace, name) for name in recorded_kinds()}
        dead = set(trace.KINDS) - emitted
        assert not dead, (
            f"kinds registered in core/trace.py but never passed to a "
            f"recording call anywhere in src: {sorted(dead)}"
        )
