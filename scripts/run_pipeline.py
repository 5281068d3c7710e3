"""Run the whole pipeline: classify subgroups, compute and check the table.

Stages (all through the installed command-line interface):

1. ``lattice compute``  - the 116 subgroup classes, cached as JSON
2. ``table compute``    - the obstruction table, CSV and JSON
3. ``table check``      - structural comparison against the reference
4. ``table check``      - full comparison (reports the known divergences
   of the reference table, so a nonzero exit here is expected and the
   pipeline only requires the structural pass)

Without --module the H^1 and lcm columns stay empty; with the bundled
module first cohomology is computed for every class, which takes seconds.
The classification in stage 1 is the long part.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from psp4obs import cli  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "psp4obs" \
    / "data"


def log(msg):
    print(msg, flush=True)


def stage(name, argv):
    log(f"--- {name}: psp4obs {' '.join(argv)}")
    t0 = time.time()
    code = cli.main(argv)
    log(f"--- {name}: exit {code} ({time.time() - t0:.0f}s)")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--work-dir", default=".cache",
                        help="where lattice and table files go")
    parser.add_argument("--module", default=str(DATA / "m61.gmodule"),
                        help="gmodule file ('' skips the H^1 columns)")
    args = parser.parse_args(argv)

    work = pathlib.Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    lattice = work / "lattice.json"
    module_args = ["--module", args.module] if args.module else []

    if stage("lattice", ["lattice", "compute", "--cache", str(lattice)]):
        return 1
    if stage("table", ["table", "compute", "--lattice", str(lattice),
                       "--format", "csv", "--out", str(work / "table.csv")]
             + module_args):
        return 1
    if stage("table-json", ["table", "compute", "--lattice", str(lattice),
                            "--format", "json",
                            "--out", str(work / "table.json")]
             + module_args):
        return 1
    structural = stage("check-structural",
                       ["table", "check", "--table",
                        str(work / "table.json"), "--structural"])
    full = stage("check-full", ["table", "check", "--table",
                                str(work / "table.json")])
    if full:
        log("full check reports differences against the reference table "
            "(see above); the structural check is the gating one")
    return structural


if __name__ == "__main__":
    sys.exit(main())
