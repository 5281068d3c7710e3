"""End-to-end times of the pipeline's three stages, written as JSON.

    python scripts/bench_e2e.py --label NAME [--root CHECKOUT]

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

Each stage runs three times.  Then, untimed and once each, ``table
compute --format json`` with and without the module, and ``table check``
on the lattice with the module and on the JSON table with the module
columns, record the sha256 of their output and their exit status (the
check exits 1 while the computed table and the fixture differ in some
cell).  ``bench/BENCH_<label>.json`` holds the median and every raw wall
time of each stage, the sha256 of each stage's and each check's output
file (equal hashes mean byte-identical output), the git sha of the
checkout and whether its tree had uncommitted changes, and the Python and
numpy versions, the CPU model and nproc.
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
REPEATS = 3
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def run_stage(root, cpu, argv, stdout_path=None):
    """Wall seconds and exit status of one ``psp4obs`` process on one CPU;
    its stdout goes to ``stdout_path`` if given."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({k: "1" for k in ONE_THREAD})
    with open(stdout_path or os.devnull, "w") as sink:
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "psp4obs.cli", *argv],
                              cwd=root, env=env, stdout=sink,
                              stderr=subprocess.DEVNULL,
                              preexec_fn=lambda: os.sched_setaffinity(
                                  0, {cpu})).returncode
        return time.perf_counter() - t0, code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=pathlib.Path, default=HERE,
                        help="checkout whose src/ is timed")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    # relative to the checkout, so that module verify prints the same path
    module = pathlib.Path("src", "psp4obs", "data", "m61.gmodule")
    cpu = min(os.sched_getaffinity(0))
    times = {"lattice_cold_s": [], "table_s": [], "table_module_s": [],
             "module_verify_s": []}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        lattice = tmp / "lattice.json"
        # name: (argv, output file, whether that file is the stdout)
        stages = {
            "lattice_cold_s": (["lattice", "compute", "--cache", str(lattice)],
                               lattice, False),
            "table_s": (["table", "compute", "--lattice", str(lattice),
                         "--out", str(tmp / "table.csv")], tmp / "table.csv",
                        False),
            "table_module_s": (["table", "compute", "--lattice", str(lattice),
                                "--module", str(module),
                                "--out", str(tmp / "table-module.csv")],
                               tmp / "table-module.csv", False),
            "module_verify_s": (["module", "verify", "--module", str(module)],
                                tmp / "verify.txt", True),
        }
        for rep in range(REPEATS):
            for name, (stage_argv, out, stdout) in stages.items():
                if name == "lattice_cold_s":
                    lattice.unlink(missing_ok=True)
                seconds, code = run_stage(root, cpu, stage_argv,
                                          out if stdout else None)
                if code:
                    raise RuntimeError(f"{name}: exit status {code}")
                times[name].append(seconds)
                digest = _sha256(out)
                if outputs.setdefault(name, digest) != digest:
                    raise RuntimeError(f"{name}: output differs between "
                                       f"repeats")
                print(f"{name} run {rep + 1}: {seconds:.2f} s", flush=True)
        table_json = tmp / "table-module.json"
        untimed = {
            "table_json": (["table", "compute", "--lattice", str(lattice),
                            "--format", "json", "--out",
                            str(tmp / "table.json")], tmp / "table.json",
                           False),
            "table_module_json": (["table", "compute", "--lattice",
                                   str(lattice), "--module", str(module),
                                   "--format", "json", "--out",
                                   str(table_json)], table_json, False),
            "check_lattice_module": (["table", "check", "--lattice",
                                      str(lattice), "--module", str(module)],
                                     tmp / "check-lattice.txt", True),
            "check_table_module": (["table", "check", "--table",
                                    str(table_json)],
                                   tmp / "check-table.txt", True),
        }
        checks = {}
        for name, (check_argv, out, stdout) in untimed.items():
            _, code = run_stage(root, cpu, check_argv, out if stdout else None)
            checks[name] = {"exit": code, "output_sha256": _sha256(out)}
            print(f"{name}: exit {code}", flush=True)
    report = {
        "label": args.label,
        "stages": {name: {"median_s": statistics.median(ts), "raw_s": ts,
                          "output_sha256": outputs[name]}
                   for name, ts in times.items()},
        "checks": checks,
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(root, "status", "--porcelain",
                               "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "repeats": REPEATS,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = HERE / "bench" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
