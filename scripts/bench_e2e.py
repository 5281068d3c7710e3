"""End-to-end times of the pipeline's three stages, written as JSON.

    python scripts/bench_e2e.py --label NAME [--root CHECKOUT]
    python scripts/bench_e2e.py --label A --root PARENT --label B --root CHANGE

Each stage runs as its own ``python -m psp4obs.cli`` process, from the
source of ``--root`` (default: this checkout), pinned to one CPU with one
BLAS thread:

* ``lattice_cold_s``: ``lattice compute`` into a new file;
* ``table_s``: ``table compute`` without a module, on that lattice;
* ``table_module_s``: ``table compute --module`` with the bundled
  ``m61.gmodule``;
* ``module_verify_s``: ``module verify --module`` on the same file, that
  is start-up, the symplectic model and ``load_module``; its output is
  its stdout.

Each stage runs five times.  Given two checkouts (a ``--label`` and a
``--root`` for each), the runs interleave: every run of a stage on one
side is followed by the same run on the other, and the side that goes
first alternates from one stage and one repeat to the next, so a drift of
the machine's speed falls on both sides alike.  Then, untimed and once
each, ``table compute --format json`` with and without the module,
``table compute --format markdown`` without it, ``table check`` on the
lattice with the module and on the JSON table with the module columns,
and ``table check --structural`` on that JSON table, ``group info``, and
``cohomology one --class 6`` on the lattice with the module, record the
sha256 of their output and their exit status (a full check exits 1 while
the computed table and the fixture differ in some cell; ``group info``
exits 1 when an action's order is wrong); so does
``scripts/build_module.py --out-dir``, once, for each of the two files it
writes.
``bench/BENCH_<label>.json``, one per checkout, holds the median and
every raw wall time of each stage, the sha256 of each stage's and each
check's output file (equal hashes mean byte-identical output), the git
sha of the checkout and whether its tree had uncommitted changes, and the
Python and numpy versions, the CPU model and nproc.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent.parent
REPEATS = 5
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI = ("-m", "psp4obs.cli")
# check name: file that scripts/build_module.py writes
BUILT = {"build_gmodule": "m61.gmodule", "build_pairing": "m61.pairing"}


def _git(root, *args):
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _sha256(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def run_stage(root, cpu, argv, stdout_path=None, program=CLI):
    """Wall seconds and exit status of one ``psp4obs`` process (or of
    another ``program`` of the checkout) on one CPU; its stdout goes to
    ``stdout_path`` if given."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({k: "1" for k in ONE_THREAD})
    with open(stdout_path or os.devnull, "w") as sink:
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, *program, *argv],
                              cwd=root, env=env, stdout=sink,
                              stderr=subprocess.DEVNULL,
                              preexec_fn=lambda: os.sched_setaffinity(
                                  0, {cpu})).returncode
        return time.perf_counter() - t0, code


def _stages(tmp):
    """name: (argv, output file, whether that file is the stdout) of the
    timed stages, then of the untimed ones, with every file in ``tmp``."""
    # relative to the checkout, so that module verify prints the same path
    module = str(pathlib.Path("src", "psp4obs", "data", "m61.gmodule"))
    lattice = str(tmp / "lattice.json")
    table_json = tmp / "table-module.json"
    timed = {
        "lattice_cold_s": (["lattice", "compute", "--cache", lattice],
                           tmp / "lattice.json", False),
        "table_s": (["table", "compute", "--lattice", lattice,
                     "--out", str(tmp / "table.csv")], tmp / "table.csv",
                    False),
        "table_module_s": (["table", "compute", "--lattice", lattice,
                            "--module", module,
                            "--out", str(tmp / "table-module.csv")],
                           tmp / "table-module.csv", False),
        "module_verify_s": (["module", "verify", "--module", module],
                            tmp / "verify.txt", True),
    }
    untimed = {
        "table_json": (["table", "compute", "--lattice", lattice,
                        "--format", "json", "--out", str(tmp / "table.json")],
                       tmp / "table.json", False),
        "table_module_json": (["table", "compute", "--lattice", lattice,
                               "--module", module, "--format", "json",
                               "--out", str(table_json)], table_json, False),
        "table_markdown": (["table", "compute", "--lattice", lattice,
                            "--format", "markdown",
                            "--out", str(tmp / "table.md")],
                           tmp / "table.md", False),
        "check_lattice_module": (["table", "check", "--lattice", lattice,
                                  "--module", module],
                                 tmp / "check-lattice.txt", True),
        "check_table_module": (["table", "check", "--table", str(table_json)],
                               tmp / "check-table.txt", True),
        "check_table_structural": (["table", "check", "--table",
                                    str(table_json), "--structural"],
                                   tmp / "check-structural.txt", True),
        "group_info": (["group", "info"], tmp / "group-info.txt", True),
        "cohomology_one": (["cohomology", "one", "--class", "6",
                            "--lattice", lattice, "--module", module],
                           tmp / "cohomology-one.txt", True),
    }
    return timed, untimed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, action="append",
                        help="name of the output file; once per checkout")
    parser.add_argument("--root", type=pathlib.Path, action="append",
                        help="checkout whose src/ is timed (default: this "
                        "checkout); one per --label")
    args = parser.parse_args(argv)
    roots = args.root or [HERE]
    if len(roots) != len(args.label) or len(set(args.label)) < len(roots):
        parser.error("give one --root per --label, and distinct labels")
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        for k, (label, root) in enumerate(zip(args.label, roots)):
            side_tmp = pathlib.Path(tmp, str(k))
            side_tmp.mkdir()
            timed, untimed = _stages(side_tmp)
            sides.append({"label": label, "root": root.resolve(),
                          "build": side_tmp / "build",
                          "timed": timed, "untimed": untimed,
                          "times": {name: [] for name in timed},
                          "outputs": {}, "checks": {}})
        for rep in range(REPEATS):
            for k, name in enumerate(sides[0]["timed"]):
                # the side that runs first alternates stage by stage and
                # repeat by repeat
                for side in sides if (rep + k) % 2 == 0 else sides[::-1]:
                    stage_argv, out, stdout = side["timed"][name]
                    if name == "lattice_cold_s":
                        out.unlink(missing_ok=True)
                    seconds, code = run_stage(side["root"], cpu, stage_argv,
                                              out if stdout else None)
                    if code:
                        raise RuntimeError(f"{side['label']} {name}: exit "
                                           f"status {code}")
                    side["times"][name].append(seconds)
                    digest = _sha256(out)
                    if side["outputs"].setdefault(name, digest) != digest:
                        raise RuntimeError(f"{side['label']} {name}: output "
                                           f"differs between repeats")
                    print(f"{side['label']} {name} run {rep + 1}: "
                          f"{seconds:.2f} s", flush=True)
        for side in sides:
            for name, (check_argv, out, stdout) in side["untimed"].items():
                _, code = run_stage(side["root"], cpu, check_argv,
                                    out if stdout else None)
                side["checks"][name] = {"exit": code,
                                        "output_sha256": _sha256(out)}
                print(f"{side['label']} {name}: exit {code}", flush=True)
            _, code = run_stage(side["root"], cpu,
                                ["--out-dir", str(side["build"])],
                                program=("scripts/build_module.py",))
            for name, file in BUILT.items():
                out = side["build"] / file
                side["checks"][name] = {
                    "exit": code,
                    "output_sha256": _sha256(out) if out.exists() else None}
            print(f"{side['label']} build_module: exit {code}", flush=True)
    date = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for side in sides:
        root = side["root"]
        report = {
            "label": side["label"],
            "stages": {name: {"median_s": statistics.median(ts), "raw_s": ts,
                              "output_sha256": side["outputs"][name]}
                       for name, ts in side["times"].items()},
            "checks": side["checks"],
            "git_sha": _git(root, "rev-parse", "HEAD"),
            "git_dirty": bool(_git(root, "status", "--porcelain",
                                   "--untracked-files=no")),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "repeats": REPEATS,
            "date": date,
        }
        path = HERE / "bench" / f"BENCH_{side['label']}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
