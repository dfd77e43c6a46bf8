"""The paper's contribution: the assembly operator and its companions."""

from repro.core.assembled import AssembledComplexObject, AssembledObject
from repro.core.assembly import (
    FAIL_FAST,
    PARTIAL,
    SKIP_OBJECT,
    Assembly,
    AssemblyStats,
)
from repro.core.multidevice import (
    MultiDeviceScheduler,
    PipelinedAssembly,
    PipelineStats,
)
from repro.core.tuning import (
    TuningResult,
    max_window_for_buffer,
    pin_bound,
    tune_window,
)
from repro.core.component_iterator import ComponentIterator
from repro.core.predicates import (
    Predicate,
    int_field_predicate,
    int_less_than,
)
from repro.core.schedulers import (
    SCHEDULERS,
    AdaptiveElevatorScheduler,
    BreadthFirstScheduler,
    DepthFirstScheduler,
    ElevatorScheduler,
    ReferenceScheduler,
    UnresolvedReference,
    make_scheduler,
)
from repro.core.stacking import StackedAssembly
from repro.core.template import Template, TemplateNode, binary_tree_template
from repro.core.trace import AssemblyTracer, TraceEvent
from repro.core.window import ComplexObjectState, Window

__all__ = [
    "AdaptiveElevatorScheduler",
    "AssembledComplexObject",
    "AssembledObject",
    "Assembly",
    "AssemblyStats",
    "AssemblyTracer",
    "BreadthFirstScheduler",
    "FAIL_FAST",
    "PARTIAL",
    "SKIP_OBJECT",
    "TraceEvent",
    "TuningResult",
    "max_window_for_buffer",
    "pin_bound",
    "tune_window",
    "ComplexObjectState",
    "ComponentIterator",
    "DepthFirstScheduler",
    "ElevatorScheduler",
    "MultiDeviceScheduler",
    "PipelineStats",
    "PipelinedAssembly",
    "Predicate",
    "ReferenceScheduler",
    "SCHEDULERS",
    "StackedAssembly",
    "Template",
    "TemplateNode",
    "UnresolvedReference",
    "Window",
    "binary_tree_template",
    "int_field_predicate",
    "int_less_than",
    "make_scheduler",
]
