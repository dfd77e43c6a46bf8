"""The exact gate on the observatory's counts (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks -q
    PYTHONPATH=src python benchmarks/test_reference_counts.py --update

The observatory's host-clock numbers are noisy and only bounded; its
simulated metrics and its Python call count repeat to the digit for a
seed.  ``results/observatory/reference_smoke.json`` records them for
every workload at smoke scale, and a change that moves one must refresh
that file in the same diff.  The simulated triple is the same on every
interpreter; how many calls a pass makes depends on the CPython minor
version, so that half runs only on the interpreter recorded in the file.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "observatory"))

from protocol import run_workload  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

REFERENCE = ROOT / "results" / "observatory" / "reference_smoke.json"
REFRESH = "PYTHONPATH=src python benchmarks/test_reference_counts.py --update"
SEED, SCALE, PASSES = 7, "smoke", 2
PYTHON = "%d.%d" % sys.version_info[:2]
SIMULATED = ("sim_seek_per_page", "sim_pages_per_object", "sim_elapsed_ms")
CALLS = "py_calls_per_object"


def measure(name):
    """One smoke run of workload ``name``: its four gated values."""
    document = run_workload(
        make_workload(name, SCALE), seed=SEED, seconds=0.0, passes=PASSES
    )
    if document["failed"]:  # not an assert: --update must refuse under -O too
        raise AssertionError(
            f"{name}: {document['failed']} operations failed their oracle: "
            f"{document['problems']}"
        )
    values = {metric: document["end_to_end"][metric] for metric in SIMULATED}
    values[CALLS] = document["per_layer"]["host." + CALLS]
    return values


@pytest.fixture(scope="module")
def reference():
    """The committed reference document."""
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module", params=list(WORKLOADS))
def measured(request):
    """``(workload name, values measured now)``, one run per workload."""
    return request.param, measure(request.param)


def assert_same(name, expected, values, metrics, rel):
    """Fail naming every metric of ``metrics`` that left its reference."""
    moved = [
        f"{name}: {metric} {expected[metric]!r} -> {values[metric]!r}"
        for metric in metrics
        if values[metric] != pytest.approx(expected[metric], rel=rel, abs=0.0)
    ]
    assert not moved, "\n".join(
        moved
        + [f"meant to move? refresh the reference in the same diff: {REFRESH}"]
    )


def test_reference_covers_every_workload(reference):
    assert list(reference["workloads"]) == list(WORKLOADS)
    assert (reference["seed"], reference["scale"], reference["passes"]) == (
        SEED, SCALE, PASSES,
    )


def test_simulated_metrics_equal_the_reference(reference, measured):
    name, values = measured
    assert_same(name, reference["workloads"][name], values, SIMULATED, 1e-9)


def test_call_count_equals_the_reference(reference, measured):
    if reference["python"] != PYTHON:
        pytest.skip(
            f"{CALLS} was recorded on CPython {reference['python']}; "
            f"this is {PYTHON}"
        )
    name, values = measured
    assert_same(name, reference["workloads"][name], values, (CALLS,), 0.0)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {REFRESH}")
    document = {
        "python": PYTHON, "seed": SEED, "scale": SCALE, "passes": PASSES,
        "workloads": {name: measure(name) for name in WORKLOADS},
    }
    REFERENCE.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {REFERENCE}")
