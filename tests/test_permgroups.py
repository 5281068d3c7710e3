"""Tests for the permutation-group layer.

Orders, conjugacy data, and structural subgroups are cross-checked against
sympy's combinatorics module and against brute-force enumeration on groups
small enough to enumerate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from oracles import (brute_conjugacy_classes, coset_action, random_element,
                     relator_matrix, word_evaluate)
from psp4obs import permgroups as pg
from psp4obs.permgroups import PermGroup


C6 = PermGroup([(1, 2, 3, 4, 5, 0)], 6)
A4 = PermGroup([(1, 2, 0, 3), (0, 2, 3, 1)], 4)
S4 = PermGroup([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
D4 = PermGroup([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
Q8 = PermGroup([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], 8)
A5 = PermGroup([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)
S5 = PermGroup([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5)
SMALL = [C6, A4, S4, D4, Q8, A5, S5]


def sympy_group(g):
    return PermutationGroup([Permutation(list(p)) for p in g.generators]) \
        if g.generators else PermutationGroup([Permutation(g.degree - 1)])


def random_perm_groups(max_degree=7, max_gens=3):
    def build(degree):
        perm = st.permutations(tuple(range(degree))).map(tuple)
        return st.lists(perm, min_size=1, max_size=max_gens).map(
            lambda gens: PermGroup(gens, degree))
    return st.integers(2, max_degree).flatmap(build)


def assert_classes_match_brute_force(g, conjugators=None):
    classes, index = brute_conjugacy_classes(g, conjugators)
    assert g.conjugacy_classes() == classes
    assert g.class_indices(g.element_table().table).tolist() == index


def assert_same_partition(rows, keys):
    """Rows are equal exactly where their keys are."""
    _, by_row = np.unique(rows, axis=0, return_inverse=True)
    _, by_key = np.unique(keys, return_inverse=True)
    pairs = np.unique(np.stack([by_row.ravel(), by_key.ravel()]), axis=1)
    assert pairs.shape[1] == by_row.max() + 1 == by_key.max() + 1


class TestElementary:
    def test_mul_convention(self):
        # pmul(p, q) applies p first, then q
        p, q = (1, 0, 2), (0, 2, 1)
        assert pg.pmul(p, q) == (2, 0, 1)
        assert pg.pmul(q, p) == (1, 2, 0)

    def test_inverse_conjugate(self):
        p = (2, 0, 3, 1)
        assert pg.pmul(p, pg.pinv(p)) == (0, 1, 2, 3)
        g = (1, 2, 3, 0)
        assert pg.porder(pg.pconj(p, g)) == pg.porder(p)

    def test_cycle_type_and_order(self):
        assert pg.cycle_type((1, 0, 3, 4, 2)) == (3, 2)
        assert pg.porder((1, 0, 3, 4, 2)) == 6
        assert pg.porder((0, 1, 2)) == 1

    def test_word_evaluate(self):
        gens = [(1, 2, 0), (1, 0, 2)]
        # letters are (generator index, exponent sign)
        assert word_evaluate(((0, 1), (0, 1), (0, 1)), gens) == (0, 1, 2)
        assert word_evaluate(((1, 1), (1, -1)), gens) == (0, 1, 2)
        assert word_evaluate(((0, 1), (1, 1)), gens) == \
            pg.pmul(gens[0], gens[1])
        assert pg.word_inverse(((0, 1), (1, -1))) == ((1, 1), (0, -1))
        assert pg.word_free_reduce(((0, 1), (1, 1), (1, -1))) == ((0, 1),)


class TestOrders:
    @pytest.mark.parametrize("g,n", [(C6, 6), (A4, 12), (S4, 24), (D4, 8),
                                     (Q8, 8), (A5, 60), (S5, 120)])
    def test_known(self, g, n):
        assert g.order == n

    @given(random_perm_groups())
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, g):
        assert g.order == sympy_group(g).order()

    def test_membership_and_express(self):
        for g in (S4, Q8, A5):
            et = g.element_table()
            for i in range(len(et)):
                p = et.perm(i)
                assert p in g
                word = g.express(p)
                assert word_evaluate(word, g.generators) == p
        assert (0, 2, 1, 3) not in A4


class TestConjugacyClasses:
    @pytest.mark.parametrize("g,k", [(C6, 6), (A4, 4), (S4, 5), (D4, 5),
                                     (Q8, 5), (A5, 5), (S5, 7)])
    def test_counts(self, g, k):
        classes = g.conjugacy_classes()
        assert len(classes) == k
        assert sum(size for _, size in classes) == g.order
        # identity first
        assert pg.is_identity(classes[0][0]) and classes[0][1] == 1

    @given(random_perm_groups(max_degree=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_count(self, g):
        ref = len(sympy_group(g).conjugacy_classes())
        assert len(g.conjugacy_classes()) == ref

    def test_class_index_consistent(self):
        for g in (S4, Q8, A5):
            classes = g.conjugacy_classes()
            reps = np.asarray([rep for rep, _ in classes])
            assert g.class_indices(reps).tolist() == list(range(len(classes)))
            # every element lands in a class of the right total size
            et = g.element_table()
            elements = np.asarray([et.perm(i) for i in range(g.order)])
            counts = np.bincount(g.class_indices(elements),
                                 minlength=len(classes))
            assert counts.tolist() == [size for _, size in classes]

    @pytest.mark.parametrize("g", [S4, Q8, A5, C6],
                             ids=["S4", "Q8", "A5", "C6"])
    def test_matches_brute_force(self, g):
        assert_classes_match_brute_force(g)

    @given(random_perm_groups(max_degree=5))
    @settings(max_examples=40, deadline=None)
    def test_random_groups_match_brute_force(self, g):
        assert_classes_match_brute_force(g)

    def test_identity_and_duplicate_generators(self):
        e, t, c = (0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0)
        g = PermGroup([e, t, c, t, e, c], 4)
        assert_classes_match_brute_force(g)
        assert g.conjugacy_classes() == S4.conjugacy_classes()

    def test_trivial_group(self):
        g = PermGroup([], 3)
        assert_classes_match_brute_force(g)
        assert g.conjugacy_classes() == [((0, 1, 2), 1)]

    def test_keys_are_reranked_before_they_wrap(self):
        # C2^14 on 28 points: 14 base points, and 28^14 > 2^63
        gens = [tuple(k ^ 1 if k // 2 == i else k for k in range(28))
                for i in range(14)]
        g = PermGroup(gens, 28)
        assert g.order == 2 ** 14 and len(g.base) == 14
        assert 28 ** 14 >= 2 ** 63
        # abelian, so every class is one element; conjugating by the
        # generators keeps the oracle at 14 x 2^14 conjugations
        assert_classes_match_brute_force(g, g.generators)
        assert len(g.conjugacy_classes()) == 2 ** 14

    def test_row_keys_are_exact(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2 ** 20, size=(500, 5))
        rows[250:] = rows[:250]  # every row twice
        keys = pg._keys(rows, 2 ** 20)
        assert_same_partition(rows, keys)

    @pytest.mark.parametrize("degree,width,kind", [
        (40, 5, np.int64),   # PSp4(3): 5 base points of 40
        (40, 11, np.int64),  # 40^11 < 2^63
        (28, 14, np.void),   # the C2^14 below: 28^14 >= 2^63
    ])
    def test_keys_equal_exactly_for_equal_rows(self, degree, width, kind):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, degree, size=(400, width)).astype(np.uint8)
        rows[200:300] = rows[:100]
        rows[300:, 1:] = rows[:100, 1:]  # equal but for the first column
        rows[300:, 0] = (rows[:100, 0] + 1) % degree
        keys = pg._keys(rows, degree)
        assert keys.dtype.type is kind
        assert_same_partition(rows, keys)

    def test_base_that_does_not_determine_elements_raises(self):
        g = PermGroup(S4.generators, 4)
        g.base = g.base[:-1]
        with pytest.raises(RuntimeError, match="base images"):
            g.conjugacy_classes()

    def test_psp4_3(self, model):
        classes = model.psp.conjugacy_classes()
        assert len(classes) == 20
        assert sum(size for _, size in classes) == 25920

    def test_exponent(self):
        assert C6.exponent() == 6
        assert S4.exponent() == 12
        assert Q8.exponent() == 4
        assert A5.exponent() == 30


class TestStructure:
    def test_derived_series_s4(self):
        d1 = S4.derived_subgroup()
        assert d1.order == 12
        d2 = d1.derived_subgroup()
        assert d2.order == 4
        assert S4.derived_length() == 3
        assert S4.derived_length() is not None and not S4.is_nilpotent()
        assert D4.is_nilpotent()

    def test_solvable_residual(self):
        assert S4.solvable_residual().order == 1
        assert A5.solvable_residual().order == 60
        assert S5.solvable_residual().order == 60
        assert A5.derived_subgroup().order == A5.order
        assert S5.derived_subgroup().order != S5.order

    def test_abelian_invariants(self):
        assert pg.abelian_invariants(S4).torsion == (2,)
        assert pg.abelian_invariants(A4).torsion == (3,)
        assert pg.abelian_invariants(Q8).torsion == (2, 2)
        assert pg.abelian_invariants(C6).torsion == (6,)
        assert pg.abelian_invariants(A5).torsion == ()

    def test_normalizer(self):
        # <(0123)> in S4 has normalizer of order 8 (a dihedral group)
        c4 = S4.subgroup([(1, 2, 3, 0)])
        n = S4.normalizer(c4)
        assert n.order == 8
        # brute-force check
        et = S4.element_table()
        sub = {tuple(r) for r in c4.element_table().table.tolist()}
        brute = sum(1 for i in range(len(et))
                    if all(pg.pconj(h, et.perm(i)) in sub for h in sub))
        assert n.order == brute

    def test_normal_closure(self):
        v4 = pg.normal_closure(S4, [(1, 0, 3, 2)])
        assert v4.order == 4
        assert pg.normal_closure(A5, [(1, 0, 3, 2, 4)]).order == 60

    def test_subgroup_conjugacy(self):
        a = S4.subgroup([(1, 0, 2, 3)])   # <(01)>
        b = S4.subgroup([(0, 1, 3, 2)])   # <(23)>
        assert S4.is_conjugate_subgroup(a, b)
        g = S4.conjugate_into(a, b)
        assert g is not None
        b_rows = {tuple(r) for r in b.element_table().table.tolist()}
        for i in range(len(a.element_table())):
            assert pg.pconj(a.element_table().perm(i), g) in b_rows
        # the normal Klein four vs a non-normal C2xC2 are not conjugate
        vn = S4.subgroup([(1, 0, 3, 2), (2, 3, 0, 1)])
        vo = S4.subgroup([(1, 0, 2, 3), (0, 1, 3, 2)])
        assert not S4.is_conjugate_subgroup(vn, vo)

    def test_conjugate_into_a_non_subgroup_is_exact(self):
        # A4 has base [0, 1]: (0 1) has the key of (0 1)(2 3), so a key
        # lookup of the target's rows in A4 would call (0 1) a member
        v = A4.subgroup([(1, 0, 3, 2)])
        t = S4.subgroup([(1, 0, 2, 3)])
        assert A4.base == [0, 1]
        assert A4.conjugate_into(v, t) is None
        assert A4.conjugating_element(v, t) is None

    def test_scans_match_brute_force(self):
        """First conjugators and normalisers in A4, for targets of S4 that
        are not subgroups of A4 too."""
        et = A4.element_table()
        elems = [et.perm(i) for i in range(len(et))]
        subs = [A4.subgroup([g]) for g in elems] + [A4]
        targets = [S4.subgroup([g]) for g in S4.element_table().table.tolist()]
        targets += [S4.subgroup([(1, 0, 2, 3), (0, 1, 3, 2)]), S4]

        def conjugators(a, b):
            rows = {tuple(r) for r in b.element_table().table.tolist()}
            return [g for g in elems if all(
                pg.pconj(h, g) in rows for h in pg._generating_rows(a))]

        for a in subs:
            for b in targets:
                found = conjugators(a, b) if b.order % a.order == 0 else []
                want = found[0] if found else None
                assert A4.conjugate_into(a, b) == want
                want = want if b.order == a.order else None
                assert A4.conjugating_element(a, b) == want
            assert A4.normalizer_rows(a).tolist() == [
                list(g) for g in conjugators(a, a)]

    def test_generator_outside_the_group_raises(self):
        t = S4.subgroup([(1, 0, 2, 3)])
        v = A4.subgroup([(1, 0, 3, 2)])
        with pytest.raises(ValueError, match="not an element of the group"):
            A4.normalizer_rows(t)
        with pytest.raises(ValueError, match="not an element of the group"):
            A4.conjugate_into(t, v)
        with pytest.raises(ValueError, match="not an element of the group"):
            A4.element_table().conjugators([(1, 0, 2, 3)], v.element_table())

    def test_coset_action(self):
        c4 = S4.subgroup([(1, 2, 3, 0)])
        act, labels, reps = coset_action(S4, c4)
        assert act.degree == 6
        assert act.order == 24  # faithful here
        assert len(reps) == 6
        # every label appears |sub| times and coset 0 holds the subgroup
        counts = np.bincount(labels)
        assert (counts == 4).all()
        et = S4.element_table()
        sub_rows = {tuple(r) for i, r in enumerate(et.table)
                    if labels[i] == 0}
        assert sub_rows == {tuple(r) for r in c4.element_table().table}


class TestPresentation:
    @pytest.mark.parametrize("g", SMALL)
    def test_relators_hold(self, g):
        pres = g.presentation()
        gens = [word_evaluate(w, g.generators) for w in pres.gen_words]
        assert len(gens) == pres.ngens
        for w in pres.relators:
            assert pg.is_identity(word_evaluate(w, gens)), w

    @pytest.mark.parametrize("g", SMALL)
    def test_abelianization_from_relators(self, g):
        pres = g.presentation()
        rel = relator_matrix(pres)
        from psp4obs import intlinalg
        inv = intlinalg.quotient_invariants(pres.ngens, rel)
        assert inv.free_rank == 0
        assert inv.torsion == pg.abelian_invariants(g).torsion

    def test_gen_words_evaluate(self):
        # presentation generators all lie in the group
        pres = S4.presentation()
        for word in pres.gen_words:
            assert word_evaluate(word, S4.generators) in S4


class TestElementTable:
    def test_sorted_and_complete(self):
        et = S4.element_table()
        assert len(et) == 24
        rows = [tuple(r) for r in et.table]
        assert rows == sorted(rows)
        assert et.index_of(et.table).tolist() == list(range(len(et)))

    def test_group_from_elements_roundtrip(self):
        et = A4.element_table()
        g = pg.group_from_elements(et.table, 4)
        assert g.order == 12
        assert g.element_table().table.tobytes() == et.table.tobytes()

    def test_random_element_stays_inside(self):
        from random import Random
        rng = Random(5)
        et = A5.element_table()
        for _ in range(20):
            p = random_element(A5, rng)
            assert p in A5

    def test_orbits(self):
        parts = pg.orbits([(1, 0, 2, 3, 4)], 5)
        assert sorted(sorted(o) for o in parts) == [[0, 1], [2], [3], [4]]
