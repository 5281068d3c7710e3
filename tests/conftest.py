"""Shared fixtures.

The full group model and the 116-class subgroup lattice are session-scoped.
The lattice is classified once per session (a few seconds) into a
temporary directory, so every test reads the file the current code writes.

``scripts/`` goes on the import path, so that the tests of the module
algebra import it from ``build_module``, the script that constructs M.
"""

import pathlib
import sys

import pytest

from psp4obs import sp4f3, subgroups

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "scripts"))


@pytest.fixture(scope="session")
def model():
    return sp4f3.standard_model()


@pytest.fixture(scope="session")
def lattice_path(model, tmp_path_factory):
    path = tmp_path_factory.mktemp("lattice") / "lattice.json"
    subgroups.subgroup_classes(model.psp).save(path)
    return path


@pytest.fixture(scope="session")
def lattice(lattice_path):
    return subgroups.SubgroupLattice.load(lattice_path)
