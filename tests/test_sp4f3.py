"""Tests for the symplectic models of PSp4(F3).

Character-level facts are checked through orthogonality relations and
structural identities (strongly regular graph equations, eigenlattice
ranks) rather than against hard-coded value lists, so every number is
derived from an independent principle.
"""

import ast
import pathlib
from functools import partial

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
        # -1 is in Sp4(3), and the line and pair actions are of PSp4(3)
        minus_one = sp4f3.vector_perm(2 * np.identity(4, dtype=int))
        assert minus_one in model.sp80
        assert model.line_action.order == sp4f3.PSP4_ORDER
        assert model.pair_action.order == sp4f3.PSP4_ORDER

    def test_model_keeps_only_the_psp_chain(self):
        model = sp4f3.build_sp4()
        actions = (model.sp80, model.line_action, model.pair_action)
        assert "levels" in vars(model.psp)
        assert all("levels" not in vars(g) for g in actions)
        # the transports use the generators alone
        pair = sp4f3.pair_perm_from_point_perm(model.psp.generators[0])
        assert all("levels" not in vars(g) for g in actions)
        assert model.pair_action.order == sp4f3.PSP4_ORDER
        assert model.sp80.order == sp4f3.SP4_ORDER
        assert "levels" in vars(model.sp80)
        assert "levels" in vars(model.pair_action)
        assert "levels" not in vars(model.line_action)
        assert pair == model.pair_action.generators[0]

    def test_build_makes_groups_on_the_points_only(self, monkeypatch):
        degrees = []
        build = PermGroup._build

        def counting(group):
            degrees.append(group.degree)
            build(group)

        monkeypatch.setattr(PermGroup, "_build", counting)
        model = sp4f3.build_sp4()
        # the empty group, then one per chosen transvection
        assert degrees == [40] * (1 + len(model.matrices))
        assert [sp4f3.point_perm(m) for m in model.matrices] == \
            model.psp.generators

    def test_library_has_no_asserts(self):
        # python -O strips asserts, so invariants must raise instead
        src = pathlib.Path(sp4f3.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert not any(isinstance(node, ast.Assert)
                           for node in ast.walk(tree)), path.name

    def test_generator_matrices_symplectic(self, model):
        j = np.asarray(sp4f3.J_FORM)
        for g in model.psp.generators:
            m = sp4f3.lift_to_sp(g)
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
        series = oracles.derived_series(model.psp)
        assert series[0].order == model.psp.order
        assert series[-1].order == model.psp.order

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
            m = sp4f3.lift_to_sp(p)
            assert sp4f3.point_perm(m) == p
        # lifting a product lands on the product up to sign
        a, b = model.psp.generators[:2]
        ab = pmul(a, b)
        lifted = sp4f3.lift_to_sp(a) @ sp4f3.lift_to_sp(b) % 3
        want = sp4f3.lift_to_sp(ab)
        assert (np.array_equal(lifted, want)
                or np.array_equal(lifted, 2 * want % 3))

    def test_lift_rejects_the_similitude(self, model):
        # diag(1, 1, 2, 2) doubles the form: it lies in PGSp4(3), not PSp4(3)
        sim = np.diag([1, 1, 2, 2])
        perm = sp4f3.point_perm(sim)
        assert sorted(perm) == list(range(40)) and perm not in model.psp
        with pytest.raises(ValueError):
            sp4f3.lift_to_sp(perm)

    def test_lift_rejects_a_transposition(self, model):
        for i, j in ((0, 1), (38, 39)):
            perm = list(range(40))
            perm[i], perm[j] = j, i
            with pytest.raises(ValueError):
                sp4f3.lift_to_sp(perm)

    def test_lift_rejects_dependent_basis_images(self, model):
        # e3 -> e1 + e2: no scaling of the images sums onto (1, 1, 1, 1);
        # e4 -> e1 + e2 + e3: a scaling of the images sums to zero
        for basis, image in (((0, 0, 1, 0), (1, 1, 0, 0)),
                             ((0, 0, 0, 1), (1, 1, 1, 0))):
            perm = list(range(40))
            i, j = sp4f3.point_index([basis, image])
            perm[i], perm[j] = j, i
            with pytest.raises(ValueError):
                sp4f3.lift_to_sp(perm)

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
    def test_degree_and_integrality(self, classes):
        values = [sp4f3.chi24(rep) for rep, _ in classes]
        assert values[0] == 24
        assert all(isinstance(v, int) for v in values)

    def test_irreducible(self, classes):
        chi = [sp4f3.chi24(rep) for rep, _ in classes]
        sizes = [size for _, size in classes]
        assert oracles.class_inner(chi, chi, sizes, sp4f3.PSP4_ORDER) == 1

    def test_orthogonal_to_trivial(self, classes):
        chi = [sp4f3.chi24(rep) for rep, _ in classes]
        one = [1] * len(classes)
        assert oracles.class_inner(chi, one, [s for _, s in classes],
                                   sp4f3.PSP4_ORDER) == 0

    def test_constituent_of_both_perm_reps(self, classes):
        sizes = [s for _, s in classes]
        chi = [sp4f3.chi24(rep) for rep, _ in classes]
        pi40 = [sp4f3.fixed_points(rep) for rep, _ in classes]
        pi45 = [sp4f3.fixed_points(sp4f3.pair_perm_from_point_perm(rep))
                for rep, _ in classes]
        inner = partial(oracles.class_inner, sizes=sizes,
                        group_order=sp4f3.PSP4_ORDER)
        # rank-3 graph: <pi40, pi40> = 3, and chi24 appears once
        assert inner(pi40, pi40) == 3
        assert inner(pi40, chi) == 1
        assert inner(pi45, pi45) == 3
        assert inner(pi45, chi) == 1

    def test_class_function_constant(self, model, classes):
        from random import Random
        rng = Random(3)
        for rep, _ in classes[:6]:
            g = oracles.random_element(model.psp, rng)
            from psp4obs.permgroups import pconj
            assert sp4f3.chi24(pconj(rep, g)) == sp4f3.chi24(rep)

    def test_picard_character(self, classes):
        sizes = [s for _, s in classes]
        pic = [sp4f3.picard_character_at(rep) for rep, _ in classes]
        assert pic[0] == 61
        one = [1] * len(classes)
        # two orbit classes of divisors minus an irreducible: <pic, 1> = 2
        assert oracles.class_inner(pic, one, sizes, sp4f3.PSP4_ORDER) == 2


# the largest class order whose preimage the oracle spans by closure
SMALL_PREIMAGE = 192
# F3-dimension of the span of each disputed class's Sp4(3) preimage
SPAN_DIMS = {43: 8, 46: 16, 77: 16, 81: 6}


class TestAbsoluteIrreducibility:
    def test_full_group(self, model):
        assert sp4f3.is_absolutely_irreducible(model.psp.generators)

    def test_trivial_subgroup(self, model):
        triv = model.psp.subgroup([])
        assert not sp4f3.is_absolutely_irreducible(triv.generators)

    def test_cyclic_subgroups(self, model):
        # no cyclic subgroup acts absolutely irreducibly in dimension 4
        for rep, _ in model.psp.conjugacy_classes()[1:4]:
            sub = model.psp.subgroup([rep])
            assert not sp4f3.is_absolutely_irreducible(sub.generators)

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
            mats = oracles.preimage(
                [sp4f3.lift_to_sp(g) for g in sub.generators])
            flat = np.array([np.array(m).reshape(16) for m in mats]) % 3
            spans = oracles.rank_mod3(flat) == 16
            assert sp4f3.is_absolutely_irreducible(sub.generators) == spans

    def test_agrees_with_the_subspace_oracle(self, model, lattice):
        # no invariant line, plane or hyperplane and a one-dimensional
        # commutant, on every class of the lattice; every generator lifts
        # as on tuples, and where the preimage is small its span has the
        # dimension the spin finds
        flags, lifted, spanned = [], 0, 0
        for info in lattice.classes:
            mats = [sp4f3.lift_to_sp(g) for g in info.generators]
            for g, m in zip(info.generators, mats):
                assert sp4f3.point_perm(m) == tuple(g)
                assert oracles.as_tuples(m) == oracles.lift_to_sp(g)
            lifted += len(mats)
            if info.order <= SMALL_PREIMAGE:
                flat = [sum(m, ()) for m in oracles.preimage(mats)]
                assert sp4f3._algebra_dimension(mats) == \
                    oracles.rank_mod3(flat), info.class_id
                spanned += 1
            irred = sp4f3.is_absolutely_irreducible(info.generators)
            assert oracles.subspace_irreducible(mats) == irred, info.class_id
            flags.append(irred)
        assert len(flags) == 116 and 0 < sum(flags) < 116
        assert lifted == 406 and spanned == 105

    def test_no_generators_span_the_scalars(self):
        assert sp4f3._algebra_dimension([]) == 1

    @pytest.mark.parametrize("extra", [
        lambda mats: [np.identity(4, dtype=int)],
        lambda mats: [2 * np.identity(4, dtype=int)],
        lambda mats: mats[:1],
    ], ids=["identity", "minus-one", "repeat"])
    def test_redundant_generators(self, lattice, extra):
        # a scalar or a repeated generator makes products within one round
        # that are zero after reduction or equal to another product
        for info in lattice.classes:
            mats = [sp4f3.lift_to_sp(g) for g in info.generators]
            assert sp4f3._algebra_dimension(mats + extra(mats)) == \
                sp4f3._algebra_dimension(mats), info.class_id

    @pytest.mark.parametrize("class_id, dim", [
        (c, SPAN_DIMS[c]) for c, col in table.DISPUTED_CELLS
        if col == "irred"])
    def test_span_of_disputed_classes(self, model, lattice, class_id, dim):
        # the reference table crosses the irred flags of 43/46 and 77/81;
        # the span of the whole preimage settles them
        info = lattice.classes[class_id - 1]
        assert info.class_id == class_id
        lifts = [sp4f3.lift_to_sp(g) for g in info.generators]
        preimage = oracles.preimage(lifts)
        assert len(preimage) == 2 * info.order
        flat = np.array([np.array(m).reshape(16) for m in preimage])
        assert oracles.rank_mod3(flat) == dim
        assert sp4f3._algebra_dimension(lifts) == dim
        assert sp4f3.is_absolutely_irreducible(info.generators) == \
            (dim == 16)
