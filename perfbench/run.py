"""Benchmark of the psp4obs pipeline.

    python3 perfbench/run.py --workload classify|h1_sweep --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run in a checkout classifies
the subgroups of PSp4(3) once (``psp4obs lattice compute --seed 1``, about
85 s) into ``.bench_build/perfbench/``; every later run reads that lattice.

``--trace 0`` times the workload untraced: several set-ups, then whole
passes while the next one is expected to fit in ``--seconds`` (always at
least one).  Its times are reference seconds, corrected for the machine's
changing speed (see ``speed.py``); the raw wall times are in the detail
line.  ``--trace 1`` makes one untraced and one traced pass on the
same inputs, reports the per-layer metrics of the traced one, the tracing
overhead, and whether both passes gave the same outputs.

Every output is checked (see ``workloads.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details and
provenance, which are also written to ``.bench_build/perfbench/``.  The
exit status is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads as wl
from speed import REF_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "psp4obs" / "data"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("classify", "h1_sweep")
SETUPS = 3          # set-ups per timed run; setup_s is their median
TABLE_REPEATS = 3   # table stages per timed pass; table_s is their median


def _write_json(path, obj):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def ensure_lattice() -> Path:
    """The seed-1 lattice of PSp4(3), classified once per checkout by the
    program's own command line, in a child process so that this process
    stays cold."""
    path = BUILD / "lattice-seed1.json"
    if not path.exists():
        tmp = BUILD / "lattice-seed1.partial"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(BUILD / "lattice-build.log", "w") as log:
            subprocess.run([sys.executable, "-m", "psp4obs.cli", "lattice",
                            "compute", "--cache", str(tmp), "--seed", "1"],
                           env=env, stdout=log, stderr=log, check=True,
                           timeout=840)
        os.replace(tmp, path)
    return path


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_sha(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(inputs) -> dict:
    return {
        "seed": inputs.seed,
        "lattice_sha256": wl.sha256(inputs.lattice),
        "gmodule_sha256": wl.sha256(inputs.gmodule),
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha(SRC / "psp4obs"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "deadline_s": wl.DEADLINE_S,
    }


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass of a workload: its compute stage, then the table stage."""

    def __init__(self, workload, state, inputs, known_hashes,
                 table_repeats, after_import=None):
        self.start = wl.clock()
        if workload == "classify":
            self.ops = [wl.classify_op(state, inputs, cid, gens, known_hashes)
                        for cid, gens in inputs.classify_ambients()]
        else:
            self.ops = wl.h1_ops(state, inputs.pair_order())
        self.end = wl.clock()
        # each table stage starts as a second `psp4obs table compute`
        # process would: fresh imports and model, set up untimed
        self.tables = []
        for _ in range(table_repeats):
            gc.collect()
            tstate = wl.setup("table", inputs, after_import)
            self.tables.append(wl.table_op(tstate, inputs))
        if workload == "h1_sweep":
            _, structural, fixture = self.tables[0]
            wl.check_h1(self.ops, structural, fixture)

    def all_ops(self) -> list:
        return self.ops + [t[0] for t in self.tables]

    def outputs(self) -> list:
        return [op.output for op in self.ops] + [self.tables[0][0].output]


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _slowest(ops, ref=None, k=5) -> list:
    """The k slowest ops, with their reference seconds when given."""
    ref = ref or [None] * len(ops)
    out = sorted(zip(ops, ref), key=lambda o: -o[0].seconds)[:k]
    return [{"op": op.name, "seconds": op.seconds, "ref_s": r,
             "status": "stopped" if op.stopped else "ok"} for op, r in out]


def _stops(ops) -> list:
    return [{"op": op.name, "late_s": round(op.seconds - wl.DEADLINE_S, 4)}
            for op in ops if op.stopped]


def timed_run(workload, inputs, seconds, known_hashes):
    setups = []   # wall-clock intervals

    def timed_setup():
        gc.collect()
        t0 = wl.clock()
        state = wl.setup(workload, inputs)
        setups.append((t0, wl.clock()))
        return state

    passes = []
    with SpeedProbe() as probe:
        for _ in range(SETUPS - 1):
            timed_setup()
        window = wl.clock()
        while True:
            t0 = wl.clock()
            passes.append(Pass(workload, timed_setup(), inputs,
                               known_hashes, TABLE_REPEATS))
            last = wl.clock() - t0
            if wl.clock() - window + last > seconds:
                break

    def ref(ops):
        return [probe.seconds(op.start, op.start + op.seconds) for op in ops]

    ops = [op for p in passes for op in p.ops]
    tables = [t[0] for p in passes for t in p.tables]
    op_s = ref(ops)
    metrics = {
        "setup_s": (statistics.median(probe.seconds(*iv) for iv in setups),
                    "s"),
        "compute_s": (statistics.median(probe.seconds(p.start, p.end)
                                        for p in passes), "s"),
        "table_s": (statistics.median(ref(tables)), "s"),
        "op_p50_s": (_percentile(op_s, 50), "s"),
        "op_p95_s": (_percentile(op_s, 95), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    checked = [op for p in passes for op in p.all_ops()]
    speeds = [REF_S / d for _, d in probe.samples]
    detail = {
        "passes": len(passes),
        "raw_setup_s": [b - a for a, b in setups],
        "raw_compute_s": [p.end - p.start for p in passes],
        "raw_table_s": [t.seconds for t in tables],
        "raw_op_p50_s": _percentile([op.seconds for op in ops], 50),
        "speed": {"samples": len(speeds), "min": min(speeds),
                  "median": statistics.median(speeds), "max": max(speeds)},
        "ops_per_pass": len(passes[0].ops),
        "slowest": _slowest(ops, op_s),
        "stops": _stops(passes[0].ops),
        "outputs_sha256": hashlib.sha256(json.dumps(
            passes[0].outputs()).encode()).hexdigest(),
    }
    return metrics, checked, detail


def traced_run(workload, inputs, known_hashes, run_id):
    gc.collect()
    t0 = wl.clock()
    state = wl.setup(workload, inputs)
    plain = Pass(workload, state, inputs, known_hashes, 1)
    untraced_s = wl.clock() - t0
    del state
    gc.collect()

    tracer = spans.Tracer(workload, run_id)

    def install(mods):
        tracer.install(mods, spans.TARGETS)

    t0 = wl.clock()
    try:
        state = wl.setup(workload, inputs, install)
        traced = Pass(workload, state, inputs, known_hashes, 1, install)
    finally:
        tracer.uninstall()
    traced_s = wl.clock() - t0
    del state

    values = spans.layer_metrics(tracer)
    values["cohomology.h1.stops"] = sum(op.stopped for op in traced.ops)
    values["cohomology.h1.stop_late_s_max"] = max(
        (op.seconds - wl.DEADLINE_S for op in traced.ops if op.stopped),
        default=0.0)
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: (values[name], unit)
               for name, (unit, _) in spans.LAYER_METRICS.items()}

    spans_path = BUILD / f"spans-{workload}-seed{inputs.seed}.json"
    tracer.dump(spans_path)
    same = plain.outputs() == traced.outputs()
    checked = plain.all_ops() + traced.all_ops()
    if not same:
        checked.append(wl.Op("trace", 0.0, 0.0, None,
                             ["traced and untraced outputs differ"]))
    zero = {name: (spans.ZERO_REASON[workload]
                   if where not in (workload, "both")
                   else "expected nonzero on this workload")
            for name, (_, where) in spans.LAYER_METRICS.items()
            if values[name] == 0}
    detail = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "outputs_match": same,
        "zero_metrics": zero,
        "spans": str(spans_path.relative_to(ROOT)),
        "slowest": _slowest(traced.ops),
        "stops": _stops(traced.ops),
    }
    return metrics, checked, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "psp4obs").is_dir():
        print(f"error: no psp4obs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    BUILD.mkdir(parents=True, exist_ok=True)
    lattice = ensure_lattice()
    inputs = wl.Inputs(
        lattice=lattice,
        gmodule=DATA / "m61.gmodule",
        fixture=DATA / "obstruction_fixture.csv",
        out_dir=BUILD,
        seed=args.seed,
        reference=json.loads(lattice.read_text()),
    )
    hashes_path = BUILD / "classify-hashes.json"
    known_hashes = (json.loads(hashes_path.read_text())
                    if hashes_path.exists() else {})
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
             f"{int(time.time())}-{os.getpid()}"

    if args.trace:
        metrics, checked, detail = traced_run(args.workload, inputs,
                                              known_hashes, run_id)
    else:
        metrics, checked, detail = timed_run(args.workload, inputs,
                                             args.seconds, known_hashes)
    _write_json(hashes_path, known_hashes)

    problems = [p for op in checked for p in op.problems]
    failed = sum(1 for op in checked if op.problems)
    detail.update(run_id=run_id, workload=args.workload, trace=args.trace,
                  provenance=provenance(inputs), problems=problems[:50])
    _write_json(BUILD / f"result-{args.workload}-seed{args.seed}"
                f"-trace{args.trace}.json", detail)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
