"""Class-fusion and element-set shortcuts against their former code paths.

The classification reads permutation characters off class fusion, runs
the derived series on element sets, counts the abelianisation and
nilpotency off the conjugacy classes, and finds the maximal classes by
scanning each class only against the maximal classes found before it,
and only where the class counts allow a containment.  The former code
paths, kept in ``oracles``, must give equal matrices, generators,
invariants and maximal classes.
"""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from psp4obs import burnside, sp4f3, subgroups, table
from psp4obs.permgroups import PermGroup, abelian_invariants

S4 = PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
D4 = PermGroup([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
Q8 = PermGroup([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], 8)
A5 = PermGroup([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)
S5 = PermGroup([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5)
SMALL = [S4, D4, Q8, A5, S5]
# C3 x Q8, A6 and the largest proper class (order 960)
LATTICE_IDS = [60, 110, 115]


def own_raws(group):
    return subgroups._layer_closure(group).raws


@pytest.fixture(scope="module")
def lattice_raws(lattice):
    return [(lattice.rep(cid), own_raws(lattice.rep(cid)))
            for cid in LATTICE_IDS]


def check_perm_characters(group, raws):
    rows = [r.rows for r in raws]
    got = burnside.perm_characters(group, rows)
    assert (got == oracles.scan_perm_characters(group, rows)).all()


def check_series(group):
    residual = group.solvable_residual()
    want = oracles.chain_solvable_residual(group)
    assert residual.order == want.order
    assert residual.generators == want.generators
    derived = group.derived_subgroup()
    assert derived.generators == oracles.chain_derived_subgroup(
        group).generators
    assert group.derived_length() == oracles.chain_derived_length(group)
    assert group.is_nilpotent() == oracles.chain_is_nilpotent(group)


def check_maximal(group, raws):
    """The maximal classes are those whose only container in the full
    containment order is the top class."""
    containers = oracles.scan_containers(raws, group)
    top = {k for k, r in enumerate(raws) if r.order == group.order}
    assert sorted(subgroups._maximal(raws, group)) == sorted(
        k for k, c in containers.items() if c == top)


class TestSmallGroups:
    @pytest.mark.parametrize("g", SMALL)
    def test_perm_characters(self, g):
        check_perm_characters(g, own_raws(g))

    @pytest.mark.parametrize("g", SMALL)
    def test_series(self, g):
        for r in own_raws(g):
            check_series(r.group)

    @pytest.mark.parametrize("g", SMALL)
    def test_containers(self, g):
        check_maximal(g, own_raws(g))

    @given(st.integers(2, 5).flatmap(
        lambda n: st.lists(st.permutations(tuple(range(n))).map(tuple),
                           min_size=1, max_size=3)))
    @settings(max_examples=30, deadline=None)
    def test_random(self, gens):
        g = PermGroup(gens)
        raws = own_raws(g)
        check_series(g)
        check_perm_characters(g, raws)
        check_maximal(g, raws)


class TestLatticeClasses:
    def test_perm_characters(self, lattice_raws):
        for g, raws in lattice_raws:
            check_perm_characters(g, raws)

    def test_series(self, lattice_raws):
        for g, raws in lattice_raws:
            check_series(g)
            for r in raws:
                check_series(r.group)

    def test_containers(self, lattice_raws):
        for g, raws in lattice_raws:
            check_maximal(g, raws)


class TestEveryLatticeClass:
    def test_abelian_invariants(self, lattice):
        for c in lattice.classes:
            rep = lattice.rep(c.class_id)
            assert abelian_invariants(rep) == \
                oracles.presentation_abelian_invariants(rep), c.class_id

    def test_nilpotent(self, lattice):
        for c in lattice.classes:
            rep = lattice.rep(c.class_id)
            assert rep.is_nilpotent() == oracles.chain_is_nilpotent(rep), \
                c.class_id


class TestChi24:
    def test_matches_the_ambient_classes(self, lattice, model):
        want = [sp4f3.chi24(model, rep)
                for rep, _ in lattice.ambient.conjugacy_classes()]
        assert table.chi24_on_ambient_classes(lattice, model) == want

    def test_uncovered_class_raises(self, lattice, model):
        # the trivial class alone meets only the identity class
        short = subgroups.SubgroupLattice(
            lattice.ambient, [lattice.classes[0], lattice.classes[-1]])
        with pytest.raises(RuntimeError):
            table.chi24_on_ambient_classes(short, model)
