"""Byte-level mutations of the input files never end in a traceback.

Four files are mutated, each at a seeded random place: the shipped gmodule
(read by ``module verify``), the shipped pairing (read by the test reader
``oracles.load_pairing``), the reference CSV (read by ``table check
--fixture ... --table ...``) and a computed table JSON (read by ``table
check --table``).  A mutation truncates the file, sets one byte to 0xff,
deletes or duplicates a line, replaces a digit by ``_`` or by a non-ASCII
digit, or replaces a run of digits by a 23-digit integer.  Each run ends in
one of three ways: exactly one ``error:`` line that names the mutated file,
with exit status 1 and nothing on stdout; the stdout and exit status of the
unmutated file; or, for ``table check`` only, a check report with exit 1.

The lattice file is left out: some of its field mutations still change the
table with exit 0, and only a check of the file against the group that it
describes could catch them.
"""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from oracles import load_pairing
from psp4obs import cli, table

DATA = table.default_fixture_path().parent
SEEDS = range(10)


def _truncated(data, rng):
    return data[:rng.randrange(len(data))]


def _byte_ff(data, rng):
    i = rng.randrange(len(data))
    return data[:i] + b"\xff" + data[i + 1:]


def _line_deleted(data, rng):
    lines = data.splitlines(True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _line_duplicated(data, rng):
    lines = data.splitlines(True)
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])
    return b"".join(lines)


def _digit_replaced(by):
    def mutate(data, rng):
        i = rng.choice([m.start() for m in re.finditer(rb"[0-9]", data)])
        return data[:i] + by + data[i + 1:]
    return mutate


def _long_integer(data, rng):
    run = rng.choice(list(re.finditer(rb"[0-9]+", data)))
    return data[:run.start()] + b"12345678901234567890123" + data[run.end():]


MUTATIONS = {"truncated": _truncated, "byte-ff": _byte_ff,
             "line-deleted": _line_deleted,
             "line-duplicated": _line_duplicated,
             "digit-underscore": _digit_replaced(b"_"),
             "digit-arabic-indic": _digit_replaced("٣".encode()),
             "23-digits": _long_integer}


def _mutated(source, name, seed, path):
    """Write ``source`` mutated by ``name`` under ``seed`` to ``path``."""
    rng = random.Random(f"{name}/{seed}")
    path.write_bytes(MUTATIONS[name](source.read_bytes(), rng))
    return path


def _run(*argv):
    """The stdout, stderr and exit status of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return out.getvalue(), err.getvalue(), code


@pytest.fixture(scope="module")
def table_json(lattice_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "table.json"
    assert _run("table", "compute", "--lattice", lattice_path,
                "--format", "json", "--out", path)[2] == 0
    return path


@pytest.fixture(scope="module")
def runs(table_json):
    """For each CLI-read file: the source, the command that reads it as
    its last argument, and that command's stdout and exit status on the
    source itself."""
    cases = {"gmodule": (DATA / "m61.gmodule", ("module", "verify",
                                                 "--module")),
             "fixture": (table.default_fixture_path(),
                         ("table", "check", "--table", table_json,
                          "--fixture")),
             "table": (table_json, ("table", "check", "--table"))}
    out = {}
    for kind, (source, argv) in cases.items():
        stdout, _, code = _run(*argv, source)
        out[kind] = source, argv, (stdout, code)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", MUTATIONS)
@pytest.mark.parametrize("kind", ["gmodule", "fixture", "table"])
def test_cli_ends_in_one_error_line_or_a_plain_run(runs, tmp_path, kind,
                                                    name, seed):
    source, argv, plain = runs[kind]
    path = _mutated(source, name, seed, tmp_path / source.name)
    out, err, code = _run(*argv, path)  # a traceback fails the test here
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    if errors:
        assert code == 1 and out == ""
        assert len(errors) == 1 and errors[0].startswith(f"error: {path}: ")
    elif (out, code) != plain:
        # only table check may instead report what differs from the fixture
        assert kind != "gmodule" and code == 1
        assert "rows matched uniquely" in out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", MUTATIONS)
def test_pairing_reader_names_the_file_or_reads_the_same(tmp_path, name,
                                                         seed):
    source = DATA / "m61.pairing"
    path = _mutated(source, name, seed, tmp_path / source.name)
    try:
        mat = load_pairing(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert np.array_equal(mat, load_pairing(source))
