"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench

Needs the benchmark's seed-1 lattice; the first use in a checkout
classifies it (about 85 s), later runs take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

sys.path.insert(0, str(run.SRC))

# small classes whose H^1 completes quickly, and a nonsolvable class (S5)
# small enough to classify in about a second
H1_SLICE = (2, 3, 10, 30, 60, 87)
CLASSIFY_SLICE = 100


@pytest.fixture(scope="module")
def inputs():
    run.BUILD.mkdir(parents=True, exist_ok=True)
    lattice = run.ensure_lattice()
    return wl.Inputs(lattice=lattice, gmodule=run.DATA / "m61.gmodule",
                     fixture=run.DATA / "obstruction_fixture.csv",
                     out_dir=run.BUILD, seed=1,
                     reference=json.loads(lattice.read_text()))


def test_self_time_of_nested_spans():
    #  a [0, 10] > b [1, 4] > c [2, 3];  a > d [5, 9]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3, 2, 1, 4]


def test_layer_entries_count_recursion_once():
    tracer = spans.Tracer("test", "0")
    tracer.names = ["x", "x", "y", "x"]
    tracer.starts, tracer.ends = [0, 1, 2, 6], [5, 4, 3, 7]
    tracer.parents = [-1, 0, 1, -1]
    totals = tracer.layer_totals()
    assert totals["x"] == (2, 2 + 2 + 1)
    assert totals["y"] == (1, 1)


def test_wrappers_record_parents():
    tracer = spans.Tracer("test", "0")
    inner = tracer.wrap("inner", lambda v: v + 1)
    outer = tracer.wrap("outer", lambda v: inner(v) * 2)
    assert outer(1) == 4
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] \
        <= tracer.ends[0]


def _classify_slice(inputs, after_import=None):
    """Ops of a small classify pass: one small class, then the table."""
    gens = next([tuple(g) for g in c["generators"]]
                for c in inputs.reference["classes"]
                if c["class_id"] == CLASSIFY_SLICE)
    state = wl.setup("classify", inputs, after_import)
    op = wl.classify_op(state, inputs, CLASSIFY_SLICE, gens, {})
    tstate = wl.setup("table", inputs, after_import)
    return [op, wl.table_op(tstate, inputs)[0]]


def _h1_slice(inputs, after_import=None):
    """Ops of a small h1_sweep pass: quick pairs, one pair stopped at a
    short deadline, then the table and the fixture check."""
    state = wl.setup("h1_sweep", inputs, after_import)
    ops = wl.h1_ops(state, [(c, m) for c in H1_SLICE for m in ("M", "Md")])
    ops += wl.h1_ops(state, [(116, "M")], deadline=0.3)
    tstate = wl.setup("table", inputs, after_import)
    table, structural, fixture = wl.table_op(tstate, inputs)
    wl.check_h1(ops, structural, fixture)
    return ops + [table]


def _traced(slice_fn, inputs):
    tracer = spans.Tracer(slice_fn.__name__, "0")
    try:
        ops = slice_fn(inputs,
                       lambda mods: tracer.install(mods, spans.TARGETS))
    finally:
        tracer.uninstall()
    return ops, tracer


SLICES = {"classify": _classify_slice, "h1_sweep": _h1_slice}


@pytest.fixture(scope="module")
def slices(inputs):
    """Per workload: the untraced ops, the traced ops and the tracer."""
    return {name: (fn(inputs),) + _traced(fn, inputs)
            for name, fn in SLICES.items()}


@pytest.mark.parametrize("workload", SLICES)
def test_traced_and_untraced_slices_agree(slices, workload):
    plain, traced, _ = slices[workload]
    assert [op.output for op in plain] == [op.output for op in traced]
    assert [p for op in plain + traced for p in op.problems] == []


def test_deadline_stops_the_pair(slices):
    ops = slices["h1_sweep"][0]
    stop = ops[-2]
    assert stop.stopped and stop.output[2] is None
    assert 0.3 <= stop.seconds < 0.5
    assert not any(op.stopped for op in ops[:-2])


@pytest.mark.parametrize("workload", SLICES)
def test_layer_metrics_move_on_their_workload(slices, workload):
    """Each per-layer metric is nonzero on a slice of the workload that
    should move it (except the ones the run measures itself)."""
    values = spans.layer_metrics(slices[workload][2])
    idle = [name for name, (_, where) in spans.LAYER_METRICS.items()
            if where in (workload, "both") and values.get(name, 1) == 0]
    assert idle == []
    assert values["table.mismatch_cells"] == len(wl.KNOWN_CELLS)


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
