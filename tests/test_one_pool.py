"""There is one reference pool (``ast`` only, no allow-list).

The paper's footnote-5 structure — the sorted pool of unresolved
references — is written down once.  Two walks keep it so:

* ``SweepPool(`` is called in exactly one module under ``src/``, the
  one that defines it: every sweep scheduler and every per-device queue
  of the device server is built on ``repro.core.schedulers``' body;
* ``service/device_server.py`` makes no ``id(`` call: what the server
  knows about a pooled reference (its query, its sequence) it reads off
  the reference, not out of an identity-keyed table beside the pool.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

from tests.source_index import PACKAGE, SRC, package, source


def _calls_of(path: Path, name: str) -> List[int]:
    """Lines on which ``path`` calls the bare name ``name``."""
    return [
        node.lineno
        for node in source(path).nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def test_the_sweep_pool_is_constructed_in_one_module():
    builders = [
        str(file.path.relative_to(SRC))
        for file in package()
        if _calls_of(file.path, "SweepPool")
    ]
    assert builders == ["repro/core/schedulers.py"]


def test_the_device_server_keeps_no_identity_keyed_table():
    server = PACKAGE / "service" / "device_server.py"
    assert _calls_of(server, "id") == []
