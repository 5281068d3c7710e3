"""Tests for Burnside-cokernel orders.

The classical benchmark pair: the two-dimensional irreducible character of
the quaternion group has order 2 in the Burnside cokernel (quaternionic
Schur index), while the same character values on the dihedral group of
order 8 are a genuine difference of permutation characters (order 1).
"""

import numpy as np
import pytest

import oracles
from psp4obs import burnside, sp4f3, subgroups, table
from psp4obs.permgroups import PermGroup, pconj, pident, pmul, porder

D4 = PermGroup([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
Q8 = PermGroup([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], 8)
S4 = PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
C6 = PermGroup([(1, 2, 3, 4, 5, 0)], 6)


def own_perm_chars(g):
    """Permutation-character matrix over all own subgroup classes."""
    lat = subgroups.subgroup_classes(g)
    rows = [c.rep(g.degree).element_table().table for c in lat.classes]
    return burnside.perm_characters(g, rows)


def two_dim_character(g):
    """The (2, -2, 0, 0, 0)-shaped 2-dim character of D4 or Q8.

    Classes are ordered canonically; the central involution is the unique
    non-identity class of size one.
    """
    values = []
    for rep, size in g.conjugacy_classes():
        if porder(rep) == 1:
            values.append(2)
        elif size == 1:
            values.append(-2)
        else:
            values.append(0)
    return tuple(values)


class TestPermCharacters:
    def test_rows_for_trivial_and_full(self):
        pc = own_perm_chars(S4)
        assert pc.shape == (11, 5)
        assert pc[0].tolist() == [24, 0, 0, 0, 0]
        assert pc[-1].tolist() == [1, 1, 1, 1, 1]

    def test_degrees_are_indices(self):
        lat = subgroups.subgroup_classes(S4)
        pc = own_perm_chars(S4)
        for c, row in zip(lat.classes, pc):
            assert row[0] == S4.order // c.order

    def test_fixed_coset_counts_single(self):
        c4 = S4.subgroup([(1, 2, 3, 0)])
        counts = burnside.perm_characters(
            S4, [c4.element_table().table])[0].tolist()
        # S4/C4 is the action on three objects: character (3, 1, 0, 3, 1)
        # in some class order; identity fixes all 6/... index = 6
        assert counts[0] == 6
        assert all(0 <= v <= 6 for v in counts)

    def test_restrict_classfn(self):
        assert burnside.restrict_classfn((10, 20, 30), (0, 2, 2, 1)) == \
            (10, 30, 30, 20)


class TestBurnsideOrder:
    def test_q8_two_dim_has_order_two(self):
        chi = two_dim_character(Q8)
        assert burnside.burnside_order(own_perm_chars(Q8), chi,
                                       bound=8) == 2

    def test_d4_two_dim_has_order_one(self):
        chi = two_dim_character(D4)
        assert burnside.burnside_order(own_perm_chars(D4), chi,
                                       bound=8) == 1

    def test_linear_characters_of_c6(self):
        # all rational characters of a cyclic group are virtual
        # permutation characters (Artin induction with denominator 1)
        pc = own_perm_chars(C6)
        classes = C6.conjugacy_classes()
        # the rational character of the primitive 6th roots: values
        # (2, 1, -1, -2, -1, 1) ordered by powers; build it by orders
        chi = [0] * 6
        index = C6.class_indices(np.asarray([rep for rep, _ in classes]))
        for (rep, _), i in zip(classes, index.tolist()):
            chi[i] = {1: 2, 2: -2, 3: -1, 6: 1}[porder(rep)]
        assert burnside.burnside_order(pc, tuple(chi), bound=6) == 1

    def test_s4_standard_character(self):
        # the standard 3-dim character = natural perm char minus trivial
        pc = own_perm_chars(S4)
        classes = S4.conjugacy_classes()
        natural = tuple(sum(1 for x in rep if rep[x] == x)
                        for rep, _ in classes)
        std = tuple(v - 1 for v in natural)
        assert burnside.burnside_order(pc, std, bound=24) == 1

    def test_sign_character_s4(self):
        from psp4obs.permgroups import cycle_type
        classes = S4.conjugacy_classes()

        def sign(p):
            evens = sum(1 for c in cycle_type(p) if c % 2 == 0)
            return 1 if evens % 2 == 0 else -1

        chi = tuple(sign(rep) for rep, _ in classes)
        assert burnside.burnside_order(own_perm_chars(S4), chi,
                                       bound=24) == 1

    def test_bound_is_enforced(self):
        # a character requiring multiplier 2 fails under bound 1
        chi = two_dim_character(Q8)
        with pytest.raises(ValueError):
            burnside.burnside_order(own_perm_chars(Q8), chi, bound=1)

    def test_target_outside_span_rejected(self):
        # no multiple of a vector outside the rational row space lies in
        # the lattice; the search must raise instead of looping
        pc = np.array([[1, 0]])
        with pytest.raises(ValueError):
            burnside.burnside_order(pc, (0, 1), bound=10)


    def test_every_lattice_class_matches_the_smith_oracle(self, lattice):
        # the Burnside column of all 116 classes, against the Smith form's
        # column transform (the 8 rows with order 2 included)
        ambient = table.chi24_on_ambient_classes(lattice)
        orders = []
        for info in lattice.classes:
            chi = burnside.restrict_classfn(ambient, info.elem_fusion)
            got = burnside.burnside_order(info.perm_chars, chi,
                                          bound=info.order)
            assert got == oracles.minimal_multiplier_by_smith(
                info.perm_chars, chi, bound=info.order), info.class_id
            orders.append(got)
        assert len(orders) == 116
        assert sorted(orders)[-9:] == [1] + [2] * 8

class TestClass60:
    """The reference table gives class 60 (C3 x Q8) Burnside order 1; the
    computed 2 is recomputed here from every subgroup by brute force."""

    def test_brute_force_order_is_two(self, lattice):
        # the one disputed Burnside cell, which this oracle backs
        assert [c for c, col in table.DISPUTED_CELLS
                if col == "burnside"] == [60]
        info = lattice.classes[59]
        assert info.class_id == 60 and info.order == 24
        elements = oracles.closure([tuple(g) for g in info.generators],
                                   pmul, pident(40))
        assert len(elements) == 24
        # one involution: C3 x Q8, the reference label <24 11>, not C3 x D4
        assert sum(1 for x in elements if porder(x) == 2) == 1
        subs = oracles.brute_subgroups(elements)
        assert len(subs) == 12
        classes, sub_classes = [], []
        for x in sorted(elements):
            if not any(x in c for c in classes):
                classes.append({pconj(x, g) for g in elements})
        for sub in sorted(subs, key=len):
            if not any(sub in c for c in sub_classes):
                sub_classes.append({frozenset(pconj(x, g) for x in sub)
                                    for g in elements})
        reps = [min(c) for c in classes]
        marks = oracles.brute_perm_characters(
            elements, [min(c, key=sorted) for c in sub_classes], reps)
        chi = [sp4f3.chi24(x) for x in reps]
        order = oracles.snf_order(marks, chi)
        assert order == 2
        ambient = table.chi24_on_ambient_classes(lattice)
        computed = burnside.burnside_order(
            info.perm_chars, burnside.restrict_classfn(ambient,
                                                       info.elem_fusion),
            bound=info.order)
        assert computed == order
