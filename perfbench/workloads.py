"""The two workloads, their output checks and their inputs.

Both are closed loops: one client in one process, each call waiting for
the one before it.

``classify``
    Cold ``subgroups.subgroup_classes(H, seed)`` on each of the three
    largest proper subgroup classes H of PSp4(3) (orders 960, 720 and 648),
    each lattice saved to a file, then the table stage.  These are the
    permgroups, subgroups and burnside layers of a cold classification; the
    whole group's classification takes about 85 s, which does not fit the
    run-time budget, so its three largest subgroups stand in for it.
``h1_sweep``
    ``cohomology.h1(module.restrict(rep))`` for every class id 1..116 and
    both the bundled rank-61 module M and its dual, 232 pairs sharing one
    module object, largest class first, each pair stopped at a deadline.
    Then the table stage, whose structural alignment the H^1 check uses.

The table stage (reload the lattice, ``table.compute_table`` without a
module, structural and full ``table.compare_fixture``) runs in both.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import re
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# a pair still running at the deadline is stopped; every pair that
# completes at the seed commit takes at most 0.9 s, and class 110 on M
# takes about 20-25 s, so 2 s keeps a factor 2 on both sides
DEADLINE_S = 2.0
CLASSIFY_CLASSES = 3
EXPECTED_CLASSES = 116
# the five cells where the computed table and the fixture disagree, each
# backed by an independent oracle (ROADMAP item 2)
KNOWN_CELLS = frozenset({(43, "irred"), (46, "irred"), (77, "irred"),
                         (81, "irred"), (60, "burnside")})
MODULES = ("intlinalg", "permgroups", "burnside", "subgroups", "sp4f3",
           "zmodules", "cohomology", "table")

clock = time.perf_counter


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fresh_import() -> dict:
    """Import the package anew, so no model, representative or module
    matrix cache survives from an earlier pass."""
    for name in [n for n in sys.modules
                 if n == "psp4obs" or n.startswith("psp4obs.")]:
        del sys.modules[name]
    return {n: importlib.import_module(f"psp4obs.{n}") for n in MODULES}


@dataclass
class Inputs:
    """Everything a pass reads, fixed before any timing starts."""

    lattice: Path
    gmodule: Path
    fixture: Path
    out_dir: Path
    seed: int
    reference: dict   # the lattice file as parsed JSON

    def classify_ambients(self) -> list:
        """(class id, generators) of the largest proper classes."""
        classes = sorted(self.reference["classes"], key=lambda c: -c["order"])
        return [(c["class_id"], [tuple(g) for g in c["generators"]])
                for c in classes[1:1 + CLASSIFY_CLASSES]]

    def own_fingerprints(self, class_id) -> list:
        """Sorted fingerprints of the subgroup classes of one class, as
        the reference lattice records them."""
        by_id = {c["class_id"]: c for c in self.reference["classes"]}
        return sorted(json.dumps(by_id[g]["fingerprint"], sort_keys=True)
                      for g in by_id[class_id]["own_gclass"])

    def pair_order(self) -> list:
        """(class id, module name), largest class first; the seed breaks
        ties between classes of equal order."""
        rng = random.Random(self.seed)
        classes = [(c["order"], rng.random(), c["class_id"])
                   for c in self.reference["classes"]]
        classes.sort(key=lambda c: (-c[0], c[1]))
        return [(cid, m) for _, _, cid in classes for m in ("M", "Md")]


# ---------------------------------------------------------------------------
# set-up


def setup(workload, inputs: Inputs, after_import=None) -> dict:
    """Imports and the model; for h1_sweep also the lattice and both
    modules."""
    mods = fresh_import()
    if after_import is not None:
        after_import(mods)
    state = {"mods": mods, "model": mods["sp4f3"].standard_model()}
    if workload == "h1_sweep":
        state["lattice"] = mods["subgroups"].SubgroupLattice.load(
            inputs.lattice)
        module = mods["zmodules"].load_module(inputs.gmodule,
                                              state["model"].psp)
        state["modules"] = {"M": module, "Md": module.dual()}
    return state


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One timed operation and the outcome of its output check."""

    name: str
    start: float
    seconds: float
    output: object
    problems: list
    stopped: bool = False


def classify_op(state, inputs: Inputs, class_id, gens, known_hashes) -> Op:
    mods = state["mods"]
    ambient = mods["permgroups"].PermGroup(gens, 40)
    path = inputs.out_dir / f"classify-seed{inputs.seed}-class{class_id}.json"
    t0 = clock()
    lat = mods["subgroups"].subgroup_classes(ambient, inputs.seed)
    lat.save(path)
    seconds = clock() - t0
    digest = sha256(path)
    problems = []
    want = inputs.own_fingerprints(class_id)
    got = sorted(json.dumps(c.fingerprint.to_json(), sort_keys=True)
                 for c in lat.classes)
    if len(got) != len(want):
        problems.append(f"class {class_id}: {len(got)} subgroup classes, "
                        f"expected {len(want)}")
    elif got != want:
        problems.append(f"class {class_id}: subgroup fingerprints differ "
                        f"from the reference lattice")
    key = f"{inputs.seed}:{class_id}"
    if known_hashes.setdefault(key, digest) != digest:
        problems.append(f"class {class_id}: lattice file differs from an "
                        f"earlier run with seed {inputs.seed}")
    return Op(f"classify {class_id}", t0, seconds,
              [class_id, len(lat), digest], problems)


_CELL = re.compile(r"^class (\d+) ~ fixture row \d+: (\w+) ")


def table_op(state, inputs: Inputs):
    """The table stage; returns the op, the structural match report and
    the fixture."""
    mods = state["mods"]
    table = mods["table"]
    t0 = clock()
    lat = mods["subgroups"].SubgroupLattice.load(inputs.lattice)
    rows = table.compute_table(table.TableConfig(lattice=lat))
    fixture = table.Fixture.load(inputs.fixture)
    structural = table.compare_fixture(rows, fixture, structural_only=True)
    full = table.compare_fixture(rows, fixture)
    seconds = clock() - t0
    problems = []
    if len(lat) != EXPECTED_CLASSES:
        problems.append(f"{len(lat)} subgroup classes, expected "
                        f"{EXPECTED_CLASSES}")
    covered = len(structural.assignments) + sum(
        len(c) for c, _ in structural.ambiguity_groups)
    if not structural.ok or covered != EXPECTED_CLASSES:
        problems.append(f"structural match covers {covered} rows, "
                        f"{len(structural.mismatches)} mismatches")
    cells = set()
    for m in full.mismatches:
        hit = _CELL.match(m)
        cells.add((int(hit.group(1)), hit.group(2)) if hit else m)
    if cells != KNOWN_CELLS or len(full.mismatches) != len(KNOWN_CELLS):
        problems.append(f"full comparison reports {sorted(map(str, cells))}, "
                        f"expected the five known cells")
    digest = hashlib.sha256(table.render_json(rows).encode()).hexdigest()
    output = [digest, sorted(full.mismatches)]
    return Op("table", t0, seconds, output, problems), structural, fixture


class _Stop(BaseException):
    """Raised in the pair that is running when its deadline passes; not an
    Exception, so no handler in the library can swallow it."""


class _Deadline:
    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise _Stop

    def run(self, fn):
        """(value, stopped) of ``fn()`` under the deadline."""
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        try:
            value = fn()
            self.armed = False
            return value, False
        except _Stop:
            return None, True
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        signal.signal(signal.SIGALRM, self._old)


def h1_ops(state, pairs, deadline=DEADLINE_S) -> list:
    """One op per (class id, module name); output is the torsion of H^1,
    or None for a pair stopped at the deadline."""
    lattice, modules = state["lattice"], state["modules"]
    h1 = state["mods"]["cohomology"].h1
    ops = []
    with _Deadline(deadline) as limit:
        for cid, name in pairs:
            module = modules[name]
            t0 = clock()
            value, stopped = limit.run(
                lambda: h1(module.restrict(lattice.rep(cid))).torsion)
            ops.append(Op(f"h1 {cid} {name}", t0, clock() - t0,
                          [cid, name, None if stopped else list(value)], [],
                          stopped))
    return ops


def check_h1(ops, structural, fixture):
    """Compare each completed pair with the fixture's h1_m / h1_md.

    Uses the structural alignment; the rows of an ambiguity group are
    compared as multisets, so the completed values of a group must be a
    sub-multiset of the fixture's.
    """
    column = {"M": "h1_m", "Md": "h1_md"}
    groups = list(structural.ambiguity_groups) + [
        ((c,), (f,)) for c, f in structural.assignments.items()]
    group_of = {c: g for g, (cids, _) in enumerate(groups) for c in cids}
    # fixture values of each (group, module) not matched yet
    pools = {(g, name): [tuple(getattr(fixture.by_row(f), col)) for f in fids]
             for g, (_, fids) in enumerate(groups)
             for name, col in column.items()}
    for op in ops:
        cid, name, value = op.output
        if op.stopped:
            continue
        if cid not in group_of:
            op.problems.append(f"class {cid} has no fixture row")
            continue
        pool = pools[(group_of[cid], name)]
        if tuple(value) in pool:
            pool.remove(tuple(value))
        else:
            op.problems.append(f"H^1 of class {cid} on {name} is "
                               f"{tuple(value)}, fixture has {pool}")
