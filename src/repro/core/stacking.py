"""Stacked assembly: combining bottom-up and top-down assembly (Fig. 17).

"Bottom-up and top-down assembly is achieved by 'stacking' assembly
operators … Assembly1 assembles all B and D objects according to the
template and passes them to Assembly2.  Assembly2 completes the
assembly by fetching A and C objects and linking them with the
sub-objects already assembled by Assembly1." (Section 7)

:class:`StackedAssembly` wires two assembly operators exactly that way:
the lower operator runs over the sub-object roots with a sub-template
(bottom-up), its outputs are registered as *pre-assembled* components,
and the upper operator assembles the full template top-down, linking
instead of fetching whenever it reaches a pre-assembled border.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.assembled import AssembledComplexObject, AssembledObject
from repro.core.assembly import Assembly
from repro.core.schedulers import ReferenceScheduler
from repro.core.template import Template
from repro.errors import AssemblyError
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.iterator import Row, VolcanoIterator


class StackedAssembly(VolcanoIterator):
    """Two stacked assembly operators: bottom-up below, top-down above.

    Parameters
    ----------
    lower_source / lower_template:
        Input roots and template of the bottom-up stage (the B/D
        sub-objects of Figure 17).
    upper_source / upper_template:
        Root OIDs and full template of the top-down stage.
    window_size / scheduler:
        Applied to both stages.

    The lower stage is a pipeline breaker: it runs to completion during
    ``open`` so its outputs can serve as the upper stage's
    pre-assembled component table.  This mirrors the paper's
    description, where Assembly1 "assembles all B and D objects … and
    passes them to Assembly2".
    """

    def __init__(
        self,
        lower_source: VolcanoIterator,
        lower_template: Template,
        upper_source: VolcanoIterator,
        upper_template: Template,
        store: ObjectStore,
        window_size: int = 1,
        scheduler: Union[str, ReferenceScheduler] = "elevator",
    ) -> None:
        super().__init__()
        self._store = store
        self._lower = Assembly(
            lower_source,
            store,
            lower_template,
            window_size=window_size,
            scheduler=scheduler,
        )
        self._upper_source = upper_source
        self._upper_template = upper_template
        self._window_size = window_size
        self._scheduler = scheduler
        self._upper: Optional[Assembly] = None
        self.preassembled: Dict[Oid, AssembledObject] = {}

    @property
    def lower(self) -> Assembly:
        """The bottom-up stage (for stats inspection)."""
        return self._lower

    @property
    def upper(self) -> Assembly:
        """The top-down stage (available after ``open``)."""
        if self._upper is None:
            raise AssemblyError("stacked assembly has not been opened")
        return self._upper

    def _open(self) -> None:
        self.preassembled = {}
        self._lower.open()
        while True:
            sub = self._lower.next()
            if sub is None:
                break
            if not isinstance(sub, AssembledComplexObject):
                raise AssemblyError(
                    f"lower assembly emitted {type(sub).__name__}"
                )
            self.preassembled[sub.root_oid] = sub.root
        self._lower.close()
        self._upper = Assembly(
            self._upper_source,
            self._store,
            self._upper_template,
            window_size=self._window_size,
            scheduler=self._scheduler,
            preassembled=self.preassembled,
        )
        self._upper.open()

    def _next(self) -> Optional[Row]:
        assert self._upper is not None
        return self._upper.next()

    def _close(self) -> None:
        if self._upper is not None and self._upper.is_open:
            self._upper.close()
