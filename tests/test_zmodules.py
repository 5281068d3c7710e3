"""Tests for integral representation modules."""

import re

import numpy as np
import pytest

import build_module
from build_module import check_pairing, perm_module, quotient_by_radical
from oracles import (direct_sum, express_matrices, inverse_transposes,
                     load_pairing)
from psp4obs import intlinalg, table, zmodules
from psp4obs.permgroups import PermGroup
from psp4obs.zmodules import (GIntModule, load_module, save_module,
                              save_pairing)

C2 = PermGroup([(1, 0)], 2)
C3 = PermGroup([(1, 2, 0)], 3)
S3 = PermGroup([(1, 0, 2), (1, 2, 0)], 3)
ROT = np.array([[0, 1], [-1, -1]])  # order-3 action on the root lattice
SWAP = np.array([[0, 1], [1, 0]])


@pytest.fixture
def std_s3():
    return GIntModule(S3, [SWAP, ROT], 2)


class TestBasics:
    def test_matrix_of_generators_and_products(self, std_s3):
        assert np.array_equal(std_s3.matrix_of((1, 0, 2)), SWAP)
        assert np.array_equal(std_s3.matrix_of((1, 2, 0)), ROT)
        assert np.array_equal(std_s3.matrix_of((0, 1, 2)),
                              np.eye(2, dtype=int))
        # anti-homomorphism convention is fixed by acting on row vectors:
        # the matrix of a product is the product of matrices in order
        from psp4obs.permgroups import pmul
        p, q = (1, 0, 2), (1, 2, 0)
        lhs = std_s3.matrix_of(pmul(p, q))
        rhs = intlinalg.mat_mul(std_s3.matrix_of(p), std_s3.matrix_of(q))
        alt = intlinalg.mat_mul(std_s3.matrix_of(q), std_s3.matrix_of(p))
        assert np.array_equal(lhs, rhs) or np.array_equal(lhs, alt)

    def test_character(self, std_s3):
        # classes of S3: identity, transposition, 3-cycle
        assert std_s3.character() == (2, 0, -1)

    def test_validate_passes(self, std_s3):
        std_s3.validate()

    def test_validate_rejects_non_invertible(self):
        with pytest.raises(ValueError):
            GIntModule(C2, [np.array([[2]])], 1).validate()

    def test_validate_rejects_wrong_relators(self):
        # order-2 generator acting by an order-3 matrix
        bad = GIntModule(C2, [ROT], 2)
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_names_the_level_of_a_broken_relation(self):
        # C2^3 on 6 points, base 0, 2, 4: M(b) and M(d) have order 2 but
        # do not commute, and b d = d b is a relation of level 1
        a, b, d = (1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)
        group = PermGroup([a, b, d], 6)
        assert group.base == [0, 2, 4]
        bad = GIntModule(group, [np.eye(2, dtype=int), SWAP,
                                 np.diag([-1, 1])], 2)
        with pytest.raises(ValueError, match="Schreier relation at level 1 "):
            bad.validate()
        GIntModule(group, [np.eye(2, dtype=int), SWAP, -SWAP], 2).validate()

    def test_validate_rejects_a_generator_of_the_wrong_order(self):
        with pytest.raises(ValueError, match="generator 0 has order 2"):
            GIntModule(C2, [ROT], 2).validate()

    def test_validate_rejects_a_nontrivial_identity_generator(self):
        group = PermGroup([(1, 0, 2), (0, 1, 2)], 3)
        with pytest.raises(ValueError, match="generator 1 has order 1"):
            GIntModule(group, [SWAP, SWAP], 2).validate()

    def test_matrix_of_a_non_member_is_an_error(self, std_s3):
        with pytest.raises(ValueError, match="not an element"):
            GIntModule(C3, [ROT], 2).matrix_of((1, 0, 2))

    def test_act_on_rows(self, std_s3):
        v = np.array([[1, 0], [0, 1]])
        out = intlinalg.mat_mul(v, std_s3.matrix_of((1, 2, 0)))
        assert np.array_equal(out, v @ ROT)


class TestConstructions:
    def test_perm_module(self):
        m = perm_module(S3, S3.generators)
        m.validate()
        assert m.rank == 3
        assert m.character() == (3, 1, 0)
        for g in m.gens:
            g = np.asarray(g)
            assert ((g == 0) | (g == 1)).all()
            assert (g.sum(axis=0) == 1).all() and (g.sum(axis=1) == 1).all()

    def test_dual(self, std_s3):
        d = std_s3.dual()
        d.validate()
        assert d.character() == std_s3.character()
        dd = d.dual()
        for a, b in zip(dd.gens, std_s3.gens):
            assert np.array_equal(a, b)

    def test_dual_of_perm_module_is_isomorphic(self):
        m = perm_module(C3, C3.generators)
        d = m.dual()
        # permutation matrices are orthogonal: dual = inverse transpose
        for a, b in zip(d.gens, m.gens):
            assert np.array_equal(np.asarray(a),
                                  np.asarray(b))

    def test_restrict(self, std_s3):
        sub = S3.subgroup([(1, 2, 0)])
        r = std_s3.restrict(sub)
        r.validate()
        assert r.group.order == 3
        assert np.array_equal(r.gens[0], ROT)

    def test_direct_sum(self, std_s3):
        sgn = GIntModule(S3, [np.array([[-1]]), np.array([[1]])], 1)
        s = direct_sum(std_s3, sgn)
        s.validate()
        assert s.rank == 3
        assert s.character() == (3, -1, 0)


M61_PATH = table.default_fixture_path().parent / "m61.gmodule"


@pytest.fixture(scope="module")
def m61(model):
    return load_module(M61_PATH, model.psp)


class TestTransversalMatrices:
    """``matrix_of`` against the product over the element's word."""

    def test_class_representatives_and_transversals(self, model, m61):
        psp = model.psp
        dual = m61.dual()
        oracle = express_matrices(psp, m61.gens)
        dual_oracle = express_matrices(psp, inverse_transposes(m61.gens))
        elements = [rep for rep, _ in psp.conjugacy_classes()]
        elements += [t for level in psp.levels for t in level.orbit.values()]
        assert len(elements) == 20 + 66
        for p in elements:
            assert np.array_equal(m61.matrix_of(p), oracle(p))
            assert np.array_equal(dual.matrix_of(p), dual_oracle(p))

    def test_generators_of_every_restriction(self, model, m61, lattice):
        psp = model.psp
        dual = m61.dual()
        oracle = express_matrices(psp, m61.gens)
        dual_oracle = express_matrices(psp, inverse_transposes(m61.gens))
        pairs = 0
        for info in lattice.classes:
            rep = lattice.rep(info.class_id)
            for module, want in ((m61, oracle), (dual, dual_oracle)):
                got = module.restrict(rep).gens
                assert len(got) == len(rep.generators)
                for g, m in zip(rep.generators, got):
                    assert np.array_equal(m, want(g)), info.class_id
                pairs += 1
        assert pairs == 232

    def test_dual_validates_and_gives_back_the_generators(self, m61):
        d = m61.dual()
        d.validate()
        for a, b in zip(d.dual().gens, m61.gens):
            assert np.array_equal(a, b)

    def test_non_member_is_an_error(self, m61):
        swap = (1, 0) + tuple(range(2, 40))
        with pytest.raises(ValueError, match="not an element"):
            m61.matrix_of(swap)

    def test_a_conjugated_generator_breaks_a_schreier_relation(self, model,
                                                               m61):
        # a basis permutation keeps M(g) unimodular and of order 3
        perm = np.roll(np.eye(61, dtype=np.int64), 1, axis=0)
        gens = list(m61.gens)
        gens[2] = perm @ gens[2] @ perm.T
        bad = GIntModule(model.psp, gens, 61)
        with pytest.raises(ValueError, match=r"Schreier relation at level \d"):
            bad.validate()


class TestQuotients:
    def test_quotient_by_radical_regular_c2(self):
        reg = perm_module(C2, C2.generators)
        # the (1, -1) line is the sign sublattice; quotient is trivial
        quo = quotient_by_radical(reg, np.array([[1, -1]]))
        assert quo.rank == 1
        assert quo.character() == (1, 1)
        # the (1, 1) line is the invariant sublattice; quotient is sign
        quo2 = quotient_by_radical(reg, np.array([[1, 1]]))
        assert quo2.character() == (1, -1)

    def test_table_and_quotient_run_no_smith_form(self, lattice,
                                                   monkeypatch):
        def refuse(a):
            raise AssertionError("a Smith form over Z was computed")

        monkeypatch.setattr(intlinalg, "snf", refuse)
        rows = table.compute_table(table.TableConfig(lattice=lattice))
        assert len(rows) == 116
        reg = perm_module(C2, C2.generators)
        assert quotient_by_radical(reg, np.array([[1, -1]])).rank == 1

    def test_quotient_rejects_unsaturated(self):
        reg = perm_module(C2, C2.generators)
        with pytest.raises(ValueError):
            quotient_by_radical(reg, np.array([[2, 2]]))

    def test_quotient_rejects_non_invariant(self):
        reg = perm_module(C3, C3.generators)
        with pytest.raises(ValueError):
            quotient_by_radical(reg, np.array([[1, 0, 0]]))

    def test_quotient_character_subtracts(self):
        # regular module of S3 modulo the augmentation-orthogonal copy of
        # the standard lattice leaves the trivial character
        reg = perm_module(S3, S3.generators)
        std_rows = intlinalg.kernel_saturated(
            np.ones((3, 1), dtype=np.int64))
        quo = quotient_by_radical(reg, std_rows)
        assert quo.rank == 1
        assert quo.character() == (1, 1, 1)

    def test_invariant_kernel_and_pairing_quotient(self):
        reg = perm_module(S3, S3.generators)
        # J pairing has the augmentation line as radical complement:
        # radical of all-ones pairing = augmentation sublattice
        p = np.ones((3, 3), dtype=int)
        rad = intlinalg.kernel_saturated(p)
        assert rad.shape == (2, 3)
        check_pairing(reg, p, rad)
        quo = quotient_by_radical(reg, rad)
        assert quo.rank == 1
        assert quo.character() == (1, 1, 1)

    def test_pairing_must_be_invariant(self):
        reg = perm_module(S3, S3.generators)
        bad = np.diag([1, 2, 3])
        with pytest.raises(ValueError, match="not invariant"):
            check_pairing(reg, bad, intlinalg.kernel_saturated(bad))

    def test_pairing_must_be_symmetric(self):
        reg = perm_module(S3, S3.generators)
        bad = np.zeros((3, 3), dtype=int)
        bad[0, 1] = 1
        with pytest.raises(ValueError, match="not symmetric"):
            check_pairing(reg, bad, intlinalg.kernel_saturated(bad))

    def test_pairing_radical_must_be_the_given_one(self):
        reg = perm_module(S3, S3.generators)
        p = np.ones((3, 3), dtype=int)
        with pytest.raises(ValueError, match="radical"):
            check_pairing(reg, p, np.array([[1, -1, 0]]))


class TestBuilder:
    def test_rebuilds_the_shipped_files_byte_for_byte(self, tmp_path,
                                                      capsys):
        assert build_module.main(["--out-dir", str(tmp_path)]) == 0
        for name in ("m61.gmodule", "m61.pairing"):
            assert ((tmp_path / name).read_bytes()
                    == (M61_PATH.parent / name).read_bytes()), name


class TestPersistence:
    def test_module_roundtrip(self, std_s3, tmp_path):
        p = tmp_path / "m.gmodule"
        save_module(std_s3, p)
        back = load_module(p, S3)
        assert back.rank == 2
        for a, b in zip(back.gens, std_s3.gens):
            assert np.array_equal(a, b)

    def test_load_rejects_wrong_generator_count(self, std_s3, tmp_path):
        p = tmp_path / "m.gmodule"
        save_module(std_s3, p)
        with pytest.raises(ValueError):
            load_module(p, C2)

    def test_load_rejects_corrupt_matrix(self, std_s3, tmp_path):
        p = tmp_path / "m.gmodule"
        save_module(std_s3, p)
        text = p.read_text().replace("0 1", "0 2", 1)
        p.write_text(text)
        with pytest.raises(ValueError):
            load_module(p, S3)

    def test_load_rejects_bad_header(self, tmp_path):
        p = tmp_path / "m.gmodule"
        p.write_text("not-a-module rank=2 gens=1\n")
        with pytest.raises(ValueError):
            load_module(p, C2)

    @pytest.mark.parametrize("keep", [0, 1, 3, 4])
    def test_load_names_the_line_where_a_cut_file_ends(self, std_s3,
                                                       tmp_path, keep):
        # empty, header only, inside matrix 1, between the two matrices
        p = tmp_path / "m.gmodule"
        save_module(std_s3, p)
        p.write_text("".join(p.read_text().splitlines(True)[:keep]))
        with pytest.raises(ValueError,
                           match=re.escape(f"{p}: line {keep + 1}:")):
            load_module(p, S3)

    @pytest.mark.parametrize("keep", [0, 2])
    def test_pairing_names_the_line_where_a_cut_file_ends(self, tmp_path,
                                                          keep):
        p = tmp_path / "p.pairing"
        save_pairing(np.array([[2, 1], [1, 2]]), p)
        p.write_text("".join(p.read_text().splitlines(True)[:keep]))
        with pytest.raises(ValueError,
                           match=re.escape(f"{p}: line {keep + 1}:")):
            load_pairing(p)

    def test_load_names_a_line_that_is_not_integers(self, std_s3, tmp_path):
        p = tmp_path / "m.gmodule"
        save_module(std_s3, p)
        lines = p.read_text().splitlines(True)
        lines[3] = "0 x\n"
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 4:")):
            load_module(p, S3)

    def test_pairing_roundtrip(self, tmp_path):
        p = tmp_path / "p.pairing"
        mat = np.array([[2, 1], [1, 2]])
        save_pairing(mat, p)
        back = load_pairing(p)
        assert np.array_equal(back, mat)

    def test_pairing_rejects_asymmetric(self, tmp_path):
        p = tmp_path / "p.pairing"
        p.write_text("pairing rank=2\n0 1\n0 0\n")
        with pytest.raises(ValueError):
            load_pairing(p)
