"""Tests for exact integer linear algebra.

Normal forms are checked against independently computed oracles: sympy's
Smith form for invariant factors, fraction-free determinants for
unimodularity, and brute-force scans and the Smith form's column
transform for minimal multipliers.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form

from oracles import det, minimal_multiplier_by_smith
from psp4obs import intlinalg as il


def int_matrices(max_dim=5, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-max_entry, max_entry),
                         min_size=n, max_size=n),
                min_size=m, max_size=m)))


@st.composite
def lattice_bases(draw):
    """A small matrix with extra rows, each an integer combination of two
    rows (a repeat, a multiple or a dependent row), so that there are
    often more rows than columns; some rows are negated to make their
    leading entry negative, and the rows are shuffled."""
    rows = list(draw(int_matrices(max_dim=4, max_entry=5)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([x * a + y * b for a, b in zip(rows[i], rows[j])])
    signed = []
    for row in rows:
        lead = next((a for a in row if a), 0)
        flip = lead > 0 and draw(st.booleans())
        signed.append([-a for a in row] if flip else row)
    return draw(st.permutations(signed))


def assert_unimodular(u):
    assert abs(det(u)) == 1


class TestHnf:
    def test_worked_example(self):
        h, u = il.hnf([[2, 4], [3, 7]])
        assert h.tolist() == [[1, 1], [0, 2]]
        assert (il.mat_mul(u, [[2, 4], [3, 7]]) == h).all()

    def test_zero_matrix(self):
        h, u = il.hnf([[0, 0], [0, 0]])
        assert (np.asarray(h) == 0).all()
        assert_unimodular(u)

    @given(int_matrices())
    @settings(max_examples=120, deadline=None)
    def test_transform_and_echelon(self, a):
        a = np.array(a)
        h, u = il.hnf(a)
        assert (il.mat_mul(u, a) == h).all()
        assert_unimodular(u)
        # echelon: pivot columns strictly increase; pivots positive;
        # entries above each pivot lie in [0, pivot)
        last = -1
        for i in range(h.shape[0]):
            nz = np.nonzero(h[i])[0]
            if nz.size == 0:
                continue
            c = int(nz[0])
            assert c > last
            last = c
            assert h[i, c] > 0
            for k in range(i):
                assert 0 <= h[k, c] < h[i, c]

    def test_row_space_canonical(self):
        # two bases of the same lattice get the same HNF basis
        b1 = [[2, 0], [0, 3]]
        b2 = [[2, 3], [2, -3]]  # same lattice? no: check a genuine pair
        a = np.array([[1, 2, 3], [4, 5, 6]])
        shuffled = a[[1, 0]]
        assert il.hnf_basis(a).tolist() == il.hnf_basis(shuffled).tolist()
        assert il.hnf_basis(np.vstack([a, a.sum(0)])).tolist() == \
            il.hnf_basis(a).tolist()


class TestSnf:
    def test_worked_example(self):
        s, u, v = il.snf([[2, 0], [0, 3]])
        assert [int(s[0, 0]), int(s[1, 1])] == [1, 6]

    @given(int_matrices())
    @settings(max_examples=120, deadline=None)
    def test_transforms_divisibility_oracle(self, a):
        a = np.array(a)
        s, u, v = il.snf(a)
        assert (il.mat_mul(il.mat_mul(u, a), v) == s).all()
        assert_unimodular(u)
        assert_unimodular(v)
        k = min(a.shape)
        d = [int(s[i, i]) for i in range(k)]
        assert not il._has_offdiag(s)
        for x, y in zip(d, d[1:]):
            assert (y % x == 0) if x else (y == 0)
        ref = smith_normal_form(sympy.Matrix(a.tolist()))
        assert [abs(int(ref[i, i])) for i in range(k)] == d

    def test_large_entries_stay_exact(self):
        a = [[2**40, 1], [1, 2**40]]
        s, u, v = il.snf(a)
        assert (il.mat_mul(il.mat_mul(u, a), v) == s).all()
        assert int(s[1, 1]) == 2**80 - 1

    @pytest.mark.parametrize("a, want", [
        # one Bezout step: (4, 6) -> (gcd, lcm)
        ([[4, 0], [0, 6]], [2, 12]),
        # a zero comes out last
        ([[0, 0], [0, 3]], [3, 0]),
        # (6, 4, 2) -> (2, 12, 2) -> (2, 2, 12): two Bezout steps
        ([[6, 0, 0], [0, 4, 0], [0, 0, 2]], [2, 2, 12]),
        # tall and wide
        ([[2, 4], [6, 8], [10, 12]], [2, 4]),
        ([[2, 0, 3], [0, 4, 5]], [1, 2]),
        ([[6, 0, 0], [0, 10, 0]], [2, 30]),
        # a step whose gcd and lcm leave int64: 2 and 2^40 (2^40 + 2) / 2
        ([[2**40, 0], [0, 2**40 + 2]], [2, 2**79 + 2**40]),
    ], ids=["4-6", "0-3", "6-4-2", "tall", "wide", "wide-6-10",
            "near-2-40"])
    def test_divisor_chain_cases(self, a, want):
        s, u, v = il.snf(a)
        assert (il.mat_mul(il.mat_mul(u, a), v) == s).all()
        assert_unimodular(u)
        assert_unimodular(v)
        assert not il._has_offdiag(s)
        k = min(s.shape)
        assert [int(s[i, i]) for i in range(k)] == want
        ref = smith_normal_form(sympy.Matrix(a))
        assert [abs(int(ref[i, i])) for i in range(k)] == want


class TestKernel:
    def test_dependent_rows(self):
        k = il.kernel_saturated([[1, 2], [2, 4], [0, 0]])
        assert k.shape[0] == 2
        assert (il.mat_mul(k, [[1, 2], [2, 4], [0, 0]]) == 0).all()

    def test_saturation_catches_index(self):
        # rows (2,0),(0,2) of the kernel of the zero map would not be
        # saturated; kernel_saturated must return the full lattice
        a = np.zeros((2, 1), dtype=int)
        k = il.kernel_saturated(a)
        assert sorted(map(list, k.tolist())) == [[0, 1], [1, 0]]

    @given(int_matrices(max_dim=6))
    @settings(max_examples=100, deadline=None)
    def test_kernel_is_saturated(self, a):
        a = np.array(a)
        k = il.kernel_saturated(a)
        assert (np.asarray(il.mat_mul(k, a)) == 0).all() if k.size else True
        # saturated <=> Z^m / kernel is torsion-free
        if k.shape[0]:
            inv = il.quotient_invariants(a.shape[0], k)
            assert inv.torsion == ()
        # rank check: kernel rank + row rank = m
        assert k.shape[0] + len(il.hnf_basis(a)) == a.shape[0]

    @given(int_matrices(max_dim=6))
    @settings(max_examples=60, deadline=None)
    def test_accumulator_matches_direct(self, a):
        a = np.array(a)
        acc = il.KernelAccumulator(a.shape[0])
        for j in range(0, a.shape[1], 2):
            acc.add_block(a[:, j:j + 2])
        assert acc.kernel().tolist() == il.kernel_saturated(a).tolist()
        assert acc.corank == a.shape[0] - len(il.hnf_basis(a))


class TestQuotient:
    def test_examples(self):
        assert str(il.quotient_invariants(2, [[2, 0], [0, 3]])) == "Z/6"
        assert str(il.quotient_invariants(3, [[1, 0, 0], [0, 2, 0]])) == "Z + Z/2"
        assert (il.quotient_invariants(2, [[1, 0], [0, 1]])
                == il.TRIVIAL_GROUP)

    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            il.AbelianInvariants(0, (3, 2))
        with pytest.raises(ValueError):
            il.AbelianInvariants(0, (1,))

    def test_exponent_and_order(self):
        inv = il.quotient_invariants(2, [[2, 0], [0, 6]])
        assert inv.torsion == (2, 6)
        assert inv.exponent() == 6
        assert math.prod(inv.torsion) == 12

    @given(st.lists(st.sampled_from([2, 4, 8, 3, 9, 5]), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_elementary_divisors_match_smith(self, qs):
        # per-prime lists in no particular order, against the Smith form
        # of the diagonal matrix
        chains = [[q for q in qs if q % p == 0] for p in (2, 3, 5)]
        want = il.quotient_invariants(len(qs),
                                      np.diag(np.array(qs, dtype=np.int64)))
        assert il.AbelianInvariants.from_elementary_divisors(chains) == want

    def test_prime_powers(self):
        assert il.prime_powers(1) == []
        assert il.prime_powers(7) == [(7, 1)]
        assert il.prime_powers(25920) == [(2, 6), (3, 4), (5, 1)]

    @given(int_matrices(max_dim=4, max_entry=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, rows):
        rows = np.array(rows)
        n = rows.shape[1]
        inv = il.quotient_invariants(n, rows)
        ref = smith_normal_form(sympy.Matrix(rows.tolist()))
        d = [abs(int(ref[i, i])) for i in range(min(rows.shape))]
        assert inv.torsion == tuple(x for x in d if x > 1)
        assert inv.free_rank == n - sum(1 for x in d if x != 0)


class TestSolve:
    def test_examples(self):
        x = il.solve_in_lattice([[2, 0], [0, 3]], [4, 9])
        assert (il.mat_mul(np.asarray(x).reshape(1, -1),
                           [[2, 0], [0, 3]]).reshape(-1) == [4, 9]).all()
        assert il.solve_in_lattice([[2, 0], [0, 3]], [1, 0]) is None

    @given(int_matrices(max_dim=5),
           st.lists(st.integers(-4, 4), min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, b, x):
        b = np.array(b)
        x = np.array(x[:b.shape[0]] + [0] * max(0, b.shape[0] - len(x)))
        t = il.mat_mul(x.reshape(1, -1), b).reshape(-1)
        y = il.solve_in_lattice(b, t)
        assert y is not None
        assert (np.asarray(il.mat_mul(np.asarray(y).reshape(1, -1), b)).reshape(-1)
                == np.asarray(t)).all()


class TestMinimalMultiplier:
    def test_example(self):
        assert il.minimal_multiplier([[2, 0], [0, 3]], [1, 1]) == 6

    def test_no_multiple(self):
        with pytest.raises(ValueError):
            il.minimal_multiplier([[2, 0, 0], [0, 3, 0]], [1, 1, 1])

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            il.minimal_multiplier([[30, 0], [0, 30]], [1, 1], bound=10)

    @given(st.one_of(int_matrices(max_dim=4, max_entry=5), lattice_bases()),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    # entries near 2**61: the forward pass promotes the workspace to object
    @example(b=[[2**61 + 1, 3], [2**61, 3], [0, 6]], t=[1, 1])
    @settings(max_examples=150, deadline=None)
    def test_scan_agreement(self, b, t):
        b = np.array(b)
        t = np.array((t + [0] * b.shape[1])[:b.shape[1]])
        try:
            n = il.minimal_multiplier(b, t, bound=10**9)
        except ValueError:
            for k in range(1, 25):
                assert il.solve_in_lattice(b, k * t) is None
            with pytest.raises(ValueError):
                minimal_multiplier_by_smith(b, t, bound=10**9)
            return
        assert minimal_multiplier_by_smith(b, t, bound=10**9) == n
        assert il.solve_in_lattice(b, n * t) is not None
        for k in range(1, min(n, 40)):
            assert il.solve_in_lattice(b, k * t) is None


class TestAsIntArray:
    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            il.as_int_array(np.array([[1.0, 2.0]]))

    def test_rejects_floats_next_to_a_large_int(self):
        with pytest.raises(ValueError):
            il.as_int_array([[2**63, 1.5]])

    @pytest.mark.parametrize("run, a", [
        (il.snf, [[1.5, 0], [0, 2]]),
        (il.hnf, [[1.5, 1], [3, 2]]),
    ], ids=["snf", "hnf"])
    def test_rejects_floats_in_an_object_array(self, run, a):
        with pytest.raises(ValueError):
            run(np.array(a, dtype=object))

    # numpy stores these as uint64, float64, object and uint64
    @pytest.mark.parametrize("a", [
        [[2**63]], [[2**63, 1]], [[-2**63, 2**64]],
        np.array([[2**63]], dtype=np.uint64),
    ], ids=["uint64", "float64", "object", "uint64-array"])
    def test_ints_beyond_int64_stay_exact(self, a):
        want = [[int(x) for x in row] for row in np.asarray(a, dtype=object)]
        got = il.as_int_array(a)
        assert got.dtype == object and got.tolist() == want
        h, u = il.hnf(a)
        assert (il.mat_mul(u, got) == h).all()
        assert int(h[0, 0]) == abs(want[0][0])

    @pytest.mark.parametrize("a, want", [
        ([[2**63]], [2**63]),
        ([[2**63, 1]], [1]),
        ([[2**63, 0], [0, 6]], [2, 3 * 2**63]),
    ], ids=["2-63", "2-63-1", "2-63-6"])
    def test_snf_beyond_int64(self, a, want):
        s, u, v = il.snf(a)
        assert (il.mat_mul(il.mat_mul(u, a), v) == s).all()
        assert [int(s[i, i]) for i in range(min(s.shape))] == want


def object_product(a, b):
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


class TestMatMul:
    @pytest.mark.parametrize("a, b, want", [
        (np.array([[200]], dtype=np.uint8), np.array([[2]], dtype=np.uint8),
         400),
        (np.array([[100]], dtype=np.int8), np.array([[3]], dtype=np.int8),
         300),
        (np.array([[2**31 - 1]], dtype=np.int32),
         np.array([[4]], dtype=np.int32), 4 * (2**31 - 1)),
    ])
    def test_narrow_inputs_give_the_exact_product(self, a, b, want):
        out = il.mat_mul(a, b)
        assert out.dtype == np.int64
        assert out.tolist() == [[want]]

    def test_most_negative_int8_counts_as_128(self):
        assert il.maxabs(np.array([[-128, 5]], dtype=np.int8)) == 128

    @pytest.mark.parametrize("a, b", [
        # bound 2^26 (2^26 - 1) 2 = 2^53 - 2^27, just below: the float
        # path, with an odd result 2^53 - 3 * 2^26 + 1
        ([[2**26, 2**26 - 1]], [[2**26 - 1], [2**26 - 1]]),
        ([[-2**26, 2**26 - 1]], [[2**26 - 1], [-(2**26 - 1)]]),
        # bound 2 (2^26 + 1)^2 > 2^53, just above: an odd result
        # 2^53 + 3 * 2^26 + 1 that a double would round
        ([[2**26 + 1, 2**26]], [[2**26 + 1], [2**26 + 1]]),
        ([[-(2**26 + 1), -2**26]], [[2**26 + 1], [2**26 + 1]]),
        # bound exactly 2^53
        ([[2**26, 2**26]], [[2**26 - 1], [2**26 + 1]]),
    ])
    def test_float_bound_edges_are_exact(self, a, b):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        want = object_product(a, b)
        out = il.mat_mul(a, b)
        assert out.dtype == np.int64
        assert out.tolist() == want.tolist()

    def test_beyond_int64_is_object(self):
        a = np.array([[2**40, 2**40]], dtype=np.int64)
        out = il.mat_mul(a, a.T)
        assert out.dtype == object
        assert out.tolist() == [[2**81]]

    @given(int_matrices(max_entry=2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_object_product(self, a):
        a = np.array(a, dtype=np.int64)
        assert il.mat_mul(a, a.T).tolist() == object_product(a, a.T).tolist()

    def test_narrow(self):
        rot = np.array([[0, 1], [-1, -1]])
        assert il.narrow(rot).dtype == np.int8
        assert il.narrow(np.array([[128]])).dtype == np.int16
        assert il.narrow(np.array([[2**40]])).dtype == np.int64
        assert il.narrow(np.array([[2**70]], dtype=object)).dtype == object
