"""Shared fixtures.

The full group model and the 116-class subgroup lattice are expensive to
build, so they are session-scoped; the lattice is additionally cached on
disk under ``.cache/`` so repeated test runs skip the multi-minute
classification.
"""

import pathlib

import pytest

from psp4obs import sp4f3, subgroups

CACHE_DIR = pathlib.Path(__file__).resolve().parent.parent / ".cache"


@pytest.fixture(scope="session")
def model():
    return sp4f3.standard_model()


@pytest.fixture(scope="session")
def lattice_path(model):
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / "lattice.json"
    if path.exists():
        lat = subgroups.SubgroupLattice.load(path)
        if lat.ambient.generators == model.psp.generators:
            return path
    lat = subgroups.subgroup_classes(model.psp)
    lat.save(path)
    return path


@pytest.fixture(scope="session")
def lattice(lattice_path):
    return subgroups.SubgroupLattice.load(lattice_path)
