"""The benchmark's traced runs still reach every layer they require.

perfbench/run.py marks a traced run incorrect when a per-layer count that
its WORKLOADS table requires reads zero, for instance when a change routes
a call around a function the tracer wraps.  These tests run small versions
of the three workloads through the tracer, in a child process each, and
check those counts.  They only read perfbench/."""

import importlib.util
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

WINDOW = ["--nvars", "3", "--maxdeg", "5"]

# per workload, ops that are cheap but take the same code paths
SMALL = {
    # the JSON op: the tracer's method list may name serializers that are gone
    "family-rank10": [["compute", "sp-groth", "3,5,1,6,2,4"],
                      ["compute", "sp-groth", "3,5,1,6,2,4", "--format", "json"]],
    "stable-window": [["compute", "GP", "2,1", *WINDOW],
                      ["expand", "GP", "2,1", *WINDOW, "--basis", "G"],
                      ["expand", "G", "2,1", *WINDOW]],
    "sweep-rank8": [["sweep", "sp-recurrence", "--rank", "6"],
                    ["sweep", "f-grass", "--rank", "4"],
                    ["sweep", "lenart-transition", "--rank", "3"],
                    ["sweep", "sp-transition", "--rank", "4"]],
}


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_has_a_small_version(run):
    assert set(SMALL) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_required_counts_are_nonzero(run, name):
    ops = SMALL[name]
    report = run.run_child(ops, trace=True, timeout=60)
    assert report["exit"] == 0
    assert [(op["exit"], op["error"]) for op in report["ops"]] == [(0, None)] * len(ops)
    layers = report["layers"]
    assert [key for key in run.WORKLOADS[name] if not layers[key]] == []
