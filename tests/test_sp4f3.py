"""Tests for the symplectic models of PSp4(F3).

Character-level facts are checked through orthogonality relations and
structural identities (strongly regular graph equations, eigenlattice
ranks) rather than against hard-coded value lists, so every number is
derived from an independent principle.
"""

import ast
import pathlib

import numpy as np
import pytest

import oracles
from psp4obs import intlinalg, sp4f3, table
from psp4obs.permgroups import PermGroup, orbits, pmul, porder


@pytest.fixture(scope="module")
def classes(model):
    return model.psp.conjugacy_classes()


class TestConstruction:
    def test_orders(self, model):
        assert sp4f3.SP4_ORDER == 51840
        assert sp4f3.PSP4_ORDER == 25920
        assert model.psp.order == sp4f3.PSP4_ORDER
        assert model.sp80.order == sp4f3.SP4_ORDER

    def test_model_keeps_only_the_psp_chain(self):
        model = sp4f3.build_sp4()
        lazy = {"sp80", "line_action", "pair_action"}
        assert lazy.isdisjoint(vars(model))
        # the transports use the generators alone
        assert sp4f3.pair_perm_from_point_perm(model.psp.generators[0]) == \
            model.pair_gens[0]
        assert lazy.isdisjoint(vars(model))
        assert model.pair_action.order == sp4f3.PSP4_ORDER
        assert model.sp80.order == sp4f3.SP4_ORDER
        assert {"sp80", "pair_action"} <= set(vars(model))

    def test_library_has_no_asserts(self):
        # python -O strips asserts, so invariants must raise instead
        src = pathlib.Path(sp4f3.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert not any(isinstance(node, ast.Assert)
                           for node in ast.walk(tree)), path.name

    def test_generator_matrices_symplectic(self, model):
        j = np.asarray(sp4f3.J_FORM)
        for m in model.gen_matrices:
            m = np.asarray(m)
            assert ((m @ j @ m.T - j) % 3 == 0).all()

    def test_point_count(self):
        assert len(sp4f3.POINTS) == 40
        assert len(sp4f3.ISOTROPIC_LINES) == 40
        assert len(sp4f3.PERP_PAIRS) == 45
        # every nonzero vector lies on exactly one projective point
        assert len(sp4f3.NONZERO_VECS) == 80

    def test_actions_transitive(self, model):
        assert len(orbits(model.psp.generators, 40)) == 1
        assert len(orbits(model.line_action.generators, 40)) == 1
        assert len(orbits(model.pair_action.generators, 45)) == 1

    def test_simple(self, model):
        assert model.psp.derived_subgroup().order == model.psp.order
        assert model.psp.solvable_residual().order == model.psp.order

    def test_class_count(self, classes):
        assert len(classes) == 20
        assert sum(size for _, size in classes) == sp4f3.PSP4_ORDER

    def test_generator_alignment(self, model):
        # the three actions come from the same matrix generators, so
        # corresponding generators must have equal orders
        for p, l, q in zip(model.psp.generators, model.line_action.generators,
                           model.pair_action.generators):
            assert porder(p) == porder(l) == porder(q)

    def test_lift_roundtrip(self, model):
        for p in model.psp.generators:
            m = model.lift_to_sp(p)
            assert sp4f3.point_perm(m) == p
        # lifting a product lands on the product up to sign
        a, b = model.psp.generators[:2]
        ab = pmul(a, b)
        lifted = sp4f3.mat_mul3(model.lift_to_sp(a), model.lift_to_sp(b))
        assert lifted in (model.lift_to_sp(ab),
                          sp4f3.mat_neg(model.lift_to_sp(ab)))

    def test_lift_rejects_the_similitude(self, model):
        # diag(1, 1, 2, 2) doubles the form: it lies in PGSp4(3), not PSp4(3)
        sim = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
        perm = sp4f3.point_perm(sim)
        assert sorted(perm) == list(range(40)) and perm not in model.psp
        with pytest.raises(ValueError):
            model.lift_to_sp(perm)

    def test_lift_rejects_a_transposition(self, model):
        for i, j in ((0, 1), (38, 39)):
            perm = list(range(40))
            perm[i], perm[j] = j, i
            with pytest.raises(ValueError):
                model.lift_to_sp(perm)

    def test_lift_rejects_dependent_basis_images(self, model):
        # e3 -> e1 + e2: no scaling of the images sums onto (1, 1, 1, 1);
        # e4 -> e1 + e2 + e3: a scaling of the images sums to zero
        for basis, image in (((0, 0, 1, 0), (1, 1, 0, 0)),
                             ((0, 0, 0, 1), (1, 1, 1, 0))):
            perm = list(range(40))
            i, j = sp4f3.POINT_INDEX[basis], sp4f3.POINT_INDEX[image]
            perm[i], perm[j] = j, i
            with pytest.raises(ValueError):
                model.lift_to_sp(perm)

    def test_line_point_actions_not_isomorphic(self, model, classes):
        # same degree, different permutation character
        point_fix = [sp4f3.fixed_points(rep) for rep, _ in classes]
        line_fix = [sp4f3.fixed_points(sp4f3.line_perm_from_point_perm(rep))
                    for rep, _ in classes]
        assert point_fix != line_fix


class TestSrg:
    def test_srg_parameters(self):
        a = np.asarray(sp4f3.srg_adjacency())
        n = 40
        assert (a == a.T).all() and (np.diag(a) == 0).all()
        assert (a.sum(axis=1) == 12).all()
        aa = a @ a
        jm = np.ones((n, n), dtype=int)
        # srg(40, 12, 2, 4): A^2 = 12 I + 2 A + 4 (J - I - A)
        assert (aa == 12 * np.eye(n, dtype=int) + 2 * a
                + 4 * (jm - np.eye(n, dtype=int) - a)).all()

    def test_adjacency_equivariant(self, model):
        a = np.asarray(sp4f3.srg_adjacency())
        for p in model.psp.generators:
            perm = np.asarray(p)
            assert (a[np.ix_(perm, perm)] == a).all()

    def test_eigenlattice_rank(self):
        a = np.asarray(sp4f3.srg_adjacency(), dtype=np.int64)
        l1 = intlinalg.kernel_saturated(a - 2 * np.eye(40, dtype=np.int64))
        assert l1.shape == (24, 40)
        assert (np.asarray(intlinalg.mat_mul(l1, a)) == 2 * l1).all()


class TestChi24:
    def test_degree_and_integrality(self, model, classes):
        values = [sp4f3.chi24(model, rep) for rep, _ in classes]
        assert values[0] == 24
        assert all(isinstance(v, int) for v in values)

    def test_irreducible(self, model, classes):
        chi = sp4f3.chi24_classfunction(model)
        sizes = [size for _, size in classes]
        assert chi.inner(chi, sizes, sp4f3.PSP4_ORDER) == 1

    def test_orthogonal_to_trivial(self, model, classes):
        chi = sp4f3.chi24_classfunction(model)
        one = sp4f3.ClassFunction((1,) * len(classes))
        assert chi.inner(one, sizes=[s for _, s in classes],
                         group_order=sp4f3.PSP4_ORDER) == 0

    def test_constituent_of_both_perm_reps(self, model, classes):
        sizes = [s for _, s in classes]
        chi = sp4f3.chi24_classfunction(model)
        pi40 = sp4f3.ClassFunction(tuple(
            sp4f3.fixed_points(rep) for rep, _ in classes))
        pi45 = sp4f3.ClassFunction(tuple(
            sp4f3.fixed_points(sp4f3.pair_perm_from_point_perm(rep))
            for rep, _ in classes))
        # rank-3 graph: <pi40, pi40> = 3, and chi24 appears once
        assert pi40.inner(pi40, sizes, sp4f3.PSP4_ORDER) == 3
        assert pi40.inner(chi, sizes, sp4f3.PSP4_ORDER) == 1
        assert pi45.inner(pi45, sizes, sp4f3.PSP4_ORDER) == 3
        assert pi45.inner(chi, sizes, sp4f3.PSP4_ORDER) == 1

    def test_class_function_constant(self, model, classes):
        from random import Random
        rng = Random(3)
        for rep, _ in classes[:6]:
            g = oracles.random_element(model.psp, rng)
            from psp4obs.permgroups import pconj
            assert sp4f3.chi24(model, pconj(rep, g)) == \
                sp4f3.chi24(model, rep)

    def test_picard_character(self, model, classes):
        sizes = [s for _, s in classes]
        pic = sp4f3.ClassFunction(tuple(
            sp4f3.picard_character_at(model, rep) for rep, _ in classes))
        assert pic.values[0] == 61
        one = sp4f3.ClassFunction((1,) * len(classes))
        # two orbit classes of divisors minus an irreducible: <pic, 1> = 2
        assert pic.inner(one, sizes, sp4f3.PSP4_ORDER) == 2


# F3-dimension of the span of each disputed class's Sp4(3) preimage
SPAN_DIMS = {43: 8, 46: 16, 77: 16, 81: 6}


class TestAbsoluteIrreducibility:
    def test_full_group(self, model):
        assert sp4f3.is_absolutely_irreducible(model, model.psp.generators)

    def test_trivial_subgroup(self, model):
        triv = model.psp.subgroup([])
        assert not sp4f3.is_absolutely_irreducible(model, triv.generators)

    def test_cyclic_subgroups(self, model):
        # no cyclic subgroup acts absolutely irreducibly in dimension 4
        for rep, _ in model.psp.conjugacy_classes()[1:4]:
            sub = model.psp.subgroup([rep])
            assert not sp4f3.is_absolutely_irreducible(model, sub.generators)

    def test_matches_matrix_span(self, model):
        # Burnside's criterion: absolutely irreducible iff the preimage's
        # matrices span the full 4x4 matrix algebra over F3
        from random import Random
        rng = Random(9)
        subs = [model.psp.subgroup([oracles.random_element(model.psp, rng),
                                    oracles.random_element(model.psp, rng)])
                for _ in range(4)]
        subs.append(model.psp.subgroup([model.psp.generators[0]]))
        for sub in subs:
            if sub.order > 400:
                continue
            gens = [sp4f3.mat_neg(sp4f3.MAT_ID)] + [
                model.lift_to_sp(g) for g in sub.generators]
            mats = oracles.closure(gens, sp4f3.mat_mul3, sp4f3.MAT_ID)
            flat = np.array([np.array(m).reshape(16) for m in mats]) % 3
            spans = oracles.rank_mod3(flat) == 16
            assert sp4f3.is_absolutely_irreducible(model, sub.generators) == spans

    def test_agrees_with_the_subspace_oracle(self, model, lattice):
        # no invariant line, plane or hyperplane and a one-dimensional
        # commutant, on every class of the lattice
        flags = []
        for info in lattice.classes:
            mats = [model.lift_to_sp(g) for g in info.generators]
            irred = sp4f3.is_absolutely_irreducible(model, info.generators)
            assert oracles.subspace_irreducible(mats) == irred, info.class_id
            flags.append(irred)
        assert len(flags) == 116 and 0 < sum(flags) < 116

    @pytest.mark.parametrize("class_id, dim", [
        (c, SPAN_DIMS[c]) for c, col in table.DISPUTED_CELLS
        if col == "irred"])
    def test_span_of_disputed_classes(self, model, lattice, class_id, dim):
        # the reference table crosses the irred flags of 43/46 and 77/81;
        # the span of the whole preimage settles them
        info = lattice.classes[class_id - 1]
        assert info.class_id == class_id
        lifts = [model.lift_to_sp(g) for g in info.generators]
        preimage = oracles.closure([sp4f3.mat_neg(sp4f3.MAT_ID)] + lifts,
                                   sp4f3.mat_mul3, sp4f3.MAT_ID)
        assert len(preimage) == 2 * info.order
        flat = np.array([np.array(m).reshape(16) for m in preimage])
        assert oracles.rank_mod3(flat) == dim
        assert sp4f3._algebra_dimension(lifts) == dim
        assert sp4f3.is_absolutely_irreducible(model, info.generators) == \
            (dim == 16)
