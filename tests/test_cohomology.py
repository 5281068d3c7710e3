"""Tests for group cohomology in degree zero and one.

The computation from generator matrices is validated against an
independent bar-resolution brute force on every module small enough for
that, and against textbook values where they are classical (sign modules,
root lattices, permutation modules, augmentation ideals).
"""

from random import Random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form

from build_module import perm_module
from oracles import (coset_action, direct_sum, h1_bruteforce,
                     quotient_mod_coboundaries, random_element)
from psp4obs import cohomology, intlinalg
from psp4obs.permgroups import PermGroup, pmul
from psp4obs.zmodules import GIntModule

C2 = PermGroup([(1, 0)], 2)
C3 = PermGroup([(1, 2, 0)], 3)
C4 = PermGroup([(1, 2, 3, 0)], 4)
V4 = PermGroup([(1, 0, 3, 2), (2, 3, 0, 1)], 4)
S3 = PermGroup([(1, 0, 2), (1, 2, 0)], 3)
D4 = PermGroup([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
Q8 = PermGroup([(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], 8)
C7 = PermGroup([(1, 2, 3, 4, 5, 6, 0)], 7)

ROT = np.array([[0, 1], [-1, -1]])
J = np.array([[0, 1], [-1, 0]])
REFL = np.array([[1, 0], [0, -1]])


def augmentation_ideal(group):
    """The kernel of Z[H] -> Z on the basis b_g = e_g - e_1 (g != 1).

    Right multiplication by h sends b_g to b_gh - b_h (with b_1 = 0).
    From 0 -> I -> Z[H] -> Z -> 0, H^1(H, I) = Z/|H|.
    """
    elems = [tuple(r) for r in group.element_table().table]
    # the sorted element table starts with the identity
    pos = {g: i for i, g in enumerate(elems[1:])}
    n = len(pos)
    mats = []
    for h in group.generators:
        m = np.zeros((n, n), dtype=int)
        for g, i in pos.items():
            gh = pmul(g, h)
            if gh in pos:
                m[i, pos[gh]] += 1
            if h in pos:
                m[i, pos[h]] -= 1
        mats.append(m)
    module = GIntModule(group, mats, n)
    module.validate()
    return module


KNOWN = [
    # (name, module, expected torsion of H^1)
    ("C2 sign", GIntModule(C2, [np.array([[-1]])], 1), (2,)),
    ("C2 trivial Z", GIntModule(C2, [np.array([[1]])], 1), ()),
    ("C2 regular", perm_module(C2, C2.generators), ()),
    ("C2 minus identity", GIntModule(C2, [-np.eye(2, dtype=int)], 2), (2, 2)),
    ("C3 regular", perm_module(C3, C3.generators), ()),
    ("C3 root lattice", GIntModule(C3, [ROT], 2), (3,)),
    ("C4 rotation", GIntModule(C4, [J], 2), (2,)),
    ("V4 regular", perm_module(V4, V4.generators), ()),
    ("S3 natural", perm_module(S3, S3.generators), ()),
    ("S3 sign", GIntModule(S3, [np.array([[-1]]), np.array([[1]])], 1),
     (2,)),
    ("S3 root lattice", GIntModule(S3, [SWAP := np.array([[0, 1], [1, 0]]),
                                        ROT], 2), ()),
    ("D4 rotation lattice", GIntModule(D4, [J, REFL], 2), (2,)),
    ("Q8 regular", perm_module(Q8, Q8.generators), ()),
    # |H| = 4 kills H^1 here and the exponent 2 does not
    ("V4 augmentation ideal", augmentation_ideal(V4), (4,)),
    # a prime outside 2, 3, 5; the invariants counted mod 7^2
    ("C7 augmentation ideal", augmentation_ideal(C7), (7,)),
    # a Smith invariant of valuation exactly a (|H| = 2^a) beside a zero
    # one, which only the valuation a+1 tells apart
    ("C4 trivial + sign + augmentation ideal",
     direct_sum(direct_sum(GIntModule(C4, [np.array([[1]])], 1),
                           GIntModule(C4, [np.array([[-1]])], 1)),
                augmentation_ideal(C4)), (2, 4)),
    ("V4 augmentation ideal + trivial Z",
     direct_sum(augmentation_ideal(V4),
                GIntModule(V4, [np.array([[1]])] * 2, 1)), (4,)),
]


class TestKnownValues:
    @pytest.mark.parametrize("name,module,expected",
                             KNOWN, ids=[k[0] for k in KNOWN])
    def test_h1(self, name, module, expected):
        got = cohomology.h1(module)
        assert got.free_rank == 0
        assert got.torsion == expected

    @pytest.mark.parametrize("name,module,expected",
                             KNOWN, ids=[k[0] for k in KNOWN])
    def test_matches_bruteforce(self, name, module, expected):
        assert cohomology.h1(module) == h1_bruteforce(module)
        assert cohomology.h1_dual(module) == h1_bruteforce(module.dual())

    @pytest.mark.parametrize("name,module,expected",
                             KNOWN, ids=[k[0] for k in KNOWN])
    def test_h0_rank_mod_ell_matches_invariants(self, name, module, expected):
        assert cohomology.h0(module) == len(
            cohomology.invariants_basis(module))

    def test_h0(self):
        assert cohomology.h0(perm_module(S3, S3.generators)) == 1
        assert cohomology.h0(perm_module(V4, V4.generators)) == 1
        assert cohomology.h0(GIntModule(C2, [np.array([[-1]])], 1)) == 0
        two_orbits = perm_module(C2, [(1, 0, 2, 3)])
        assert cohomology.h0(two_orbits) == 3

    def test_invariants_basis(self):
        m = perm_module(S3, S3.generators)
        basis = cohomology.invariants_basis(m)
        assert basis.shape == (1, 3)
        assert abs(int(basis[0].sum())) == 3  # the all-ones line


class TestProperties:
    def test_exponent_annihilates(self):
        # |H| kills H^1 in every case above
        for name, module, _ in KNOWN:
            inv = cohomology.h1(module)
            order = module.group.order
            for t in inv.torsion:
                assert order % t == 0, name

    def test_perm_modules_have_trivial_h1(self):
        # Shapiro: H^1(H, Z[H/Q]) = H^1(Q, Z) = 0
        rng = Random(4)
        for g in (S3, D4, Q8, V4, C4):
            subs = [g.subgroup([]), g]
            for _ in range(3):
                subs.append(g.subgroup([random_element(g, rng)]))
            for sub in subs:
                action, _, _ = coset_action(g, sub)
                mod = perm_module(g, action.generators)
                inv = cohomology.h1(mod)
                assert inv == intlinalg.TRIVIAL_GROUP, (g.order, sub.order)

    def test_shapiro_pairs(self):
        # H^1(G, Z[G/Q] (x) sign-ish data) via induced modules: for the
        # sign module of a subgroup Q, induction gives a monomial module
        # whose H^1 equals H^1(Q, sign) by Shapiro's lemma.
        rng = Random(11)
        for trial in range(10):
            g = (S3, D4, Q8)[trial % 3]
            q = g.subgroup([random_element(g, rng)])
            action, labels, reps = coset_action(g, q)
            n = g.order // q.order
            # monomial induction of the Q-module Z with q acting by
            # det-of-permutation sign
            et = g.element_table()

            def sign_of(p):
                perm = np.asarray(p)
                seen = np.zeros(len(perm), dtype=bool)
                sgn = 1
                for i in range(len(perm)):
                    if seen[i]:
                        continue
                    j, length = i, 0
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        length += 1
                    if length % 2 == 0:
                        sgn = -sgn
                return sgn

            from psp4obs.permgroups import pinv, pmul
            mats = []
            for gen in g.generators:
                m = np.zeros((n, n), dtype=int)
                for c in range(n):
                    target = pmul(reps[c], gen)
                    row = np.asarray([list(target)], dtype=et.table.dtype)
                    d = int(labels[et.index_of(row)[0]])
                    # rep[c] * gen = h * rep[d] with h in Q
                    h = pmul(target, pinv(reps[d]))
                    m[c, d] = sign_of(h)
                mats.append(m)
            induced = GIntModule(g, mats, n)
            induced.validate()
            q_sign = GIntModule(
                q, [np.array([[sign_of(p)]]) for p in q.generators], 1)
            assert cohomology.h1(induced) == cohomology.h1(q_sign), \
                (g.order, q.order, trial)

    def test_random_basis_change_invariance(self):
        rng = Random(12)
        cases = [(C2, [np.array([[-1]])]),
                 (C3, [ROT]),
                 (S3, [np.array([[0, 1], [1, 0]]), ROT]),
                 (D4, [J, REFL])]
        for trial in range(12):
            g, mats = cases[trial % len(cases)]
            n = mats[0].shape[0]
            u = np.eye(n, dtype=int)
            for _ in range(3):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    u[a] += rng.choice([-2, -1, 1, 2]) * u[b]
            uinv = np.asarray(intlinalg.unimodular_inverse(u))
            conj = [np.asarray(intlinalg.mat_mul(intlinalg.mat_mul(uinv, m), u))
                    for m in mats]
            mod = GIntModule(g, conj, n)
            mod.validate()
            base = cohomology.h1(GIntModule(g, mats, n))
            assert cohomology.h1(mod) == base
            assert h1_bruteforce(mod) == base

    def test_direct_sum_additivity(self):
        sgn = GIntModule(S3, [np.array([[-1]]), np.array([[1]])], 1)
        std = GIntModule(S3, [np.array([[0, 1], [1, 0]]), ROT], 2)
        s = direct_sum(std, sgn)
        got = cohomology.h1(s)
        assert sorted(got.torsion) == sorted(
            cohomology.h1(std).torsion + cohomology.h1(sgn).torsion)

    def test_dual_modules(self):
        # the rotation lattice of D4 is self-dual up to basis change
        m = GIntModule(D4, [J, REFL], 2)
        assert cohomology.h1(m.dual()) == h1_bruteforce(m.dual())


class TestBruteForceGuards:
    def test_order_cap(self):
        big = PermGroup([(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15, 16, 0)], 17)
        with pytest.raises(ValueError):
            h1_bruteforce(perm_module(big, big.generators))


@st.composite
def smith_cases(draw):
    """(m x n integer matrix with m >= n, prime p, capped valuation).

    Half the draws are small and dense, so every round of
    ``_unit_pivots`` takes one pivot.  The other half are sparse products
    B C of an m x k and a k x n matrix, k <= n and m up to 3n, with entries
    0, 0, 0, 1, -1, 2 and p.  A round's candidates then meet one another,
    so some must wait, and rows meet the columns of pivots taken before
    them, so some are second-level.  The rank, at most k, leaves rows that
    only a correct elimination clears, and the entries p give invariants of
    positive valuation.
    """
    p, exp = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 4))

    def matrix(rows, cols, entry):
        return np.array(draw(st.lists(st.lists(
            entry, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return matrix(draw(st.integers(n, 6)), n, st.integers(-12, 12)), \
            p, exp
    n = draw(st.integers(1, 8))
    m, k = draw(st.integers(n, 3 * n)), draw(st.integers(1, n))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, p))
    return matrix(m, k, entry) @ matrix(k, n, entry), p, exp


def near_cap(seed, vals):
    """A dense 10 x 6 matrix, entries up to 2^40, whose column j is
    divisible by 3^vals[j].  Reduced mod 3^19 < 2^31, a pivot's Schur
    product has terms near 3^38 > 2^53, beyond float64."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(-2**40 // 3**v, 2**40 // 3**v, 10)
                            * 3**v for v in vals])


def near_cap_block(seed):
    """A 16 x 10 matrix whose rows 0-7 meet columns 0-7 in a diagonal of
    entries 1 mod q = 3^19, with -1 mod q in columns 8 and 9, and whose
    rows 8-15 are -1 times their sum, plus multiples of q.  The first round
    mod q takes the eight pivots at once; its Schur product sums eight
    terms (q-1)^2, beyond int64, and the rest is 0 mod q."""
    q, rng = 3**19, np.random.default_rng(seed)
    top = np.zeros((8, 10), dtype=np.int64)
    top[:, :8] = np.diag(q * rng.integers(-2**9, 2**9, 8) + 1)
    top[:, 8:] = q * rng.integers(-2**9, 2**9, (8, 2)) - 1
    return np.vstack([top, q * rng.integers(-2**9, 2**9, (8, 10))
                      - top.sum(axis=0)])


def near_cap_clear(seed, k):
    """A (k+4) x (k+3) matrix whose first round mod q = 3^19 takes k
    first-level pivots, 1 mod q on the diagonal of rows and columns 0 to
    k-1, and one second-level pivot, 1 mod q in row and column k, whose row
    is -1 mod q in columns 0 to k-1.  The first-level rows are -1 mod q in
    the last two columns and the second-level row is k there, so clearing
    it sums k terms (q-1)^2 and leaves 0 mod q.  Row k+1 is 3 in column k:
    only a correct clearing leaves it 0 mod q.  The other entries are
    multiples of q."""
    q, rng = 3**19, np.random.default_rng(seed)
    a = np.zeros((k + 4, k + 3), dtype=np.int64)
    a[:k, :k] = np.eye(k, dtype=np.int64)
    a[:k, k + 1:] = -1
    a[k, :k] = -1
    a[k, k:] = (1, k, k)
    a[k + 1, k] = 3
    return a + q * rng.integers(-2**9, 2**9, a.shape)


@st.composite
def shared_cases(draw):
    """(m x n integer matrix with m >= n, composite order).  Scaling each
    column by a drawn factor leaves some columns without a unit mod N."""
    a, _, _ = draw(smith_cases())
    scale = draw(st.lists(st.sampled_from((1, 1, 2, 3, 4, 5, 6, 9)),
                          min_size=a.shape[1], max_size=a.shape[1]))
    return a * np.array(scale), draw(st.sampled_from((6, 12, 24, 60, 72)))


def _valuation(d, p, cap):
    v = 0
    while d and d % p == 0 and v < cap:
        d, v = d // p, v + 1
    return cap if d == 0 else v


class TestSmithValuations:
    @given(smith_cases())
    @example((near_cap(0, (0, 0, 0, 0, 0, 0)), 3, 19))
    @example((near_cap(1, (0, 0, 1, 2, 5, 19)), 3, 19))
    @example((near_cap(2, (0, 1, 1, 3, 8, 12)), 3, 19))
    @example((near_cap_block(3), 3, 19))
    # clearing products of 2 and 8 terms (q-1)^2: beyond 2^53 and 2^63
    @example((near_cap_clear(4, 2), 3, 19))
    @example((near_cap_clear(5, 8), 3, 19))
    # the second-level pivot in row 2 must be cleared by row 1 before the
    # Schur step reaches row 0
    @example((np.array([[0, 0, 2], [1, 1, 0], [1, 0, 1]]), 2, 2))
    # row 1 meets column 3 of the second-level pivot in row 4, so waits
    @example((np.array([[0, 0, 0, 0, 0], [0, 1, 1, 1, 1], [0, 1, 1, 1, 1],
                        [1, 0, 0, 0, 0], [1, 0, 0, 1, 1]]), 2, 1))
    # row 2, taken first, meets column 1, the candidate column of row 1,
    # so that candidate waits
    @example((np.array([[0, 0, 0, 0], [0, 1, 1, 1], [1, 1, 0, 1],
                        [1, 1, 0, 1]]), 2, 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, case):
        a, p, exp = case
        ref = smith_normal_form(sympy.Matrix(a.tolist()))
        want = sorted(_valuation(int(ref[i, i]), p, exp)
                      for i in range(a.shape[1]))
        assert cohomology._smith_valuations(a, p, exp) == want

    @given(shared_cases())
    @settings(max_examples=150, deadline=None)
    def test_shared_pass_matches_sympy(self, case):
        a, order = case
        ref = smith_normal_form(sympy.Matrix(a.tolist()))
        for p, exp, vals in cohomology._prime_valuations(a, order):
            assert vals == sorted(_valuation(int(ref[i, i]), p, exp + 1)
                                  for i in range(a.shape[1])), p


class TestSharedModulus:
    S3_MODULES = [k[:2] for k in KNOWN if k[0].startswith("S3")] + [
        ("S3 augmentation ideal", augmentation_ideal(S3))]

    @pytest.mark.parametrize("name,module", S3_MODULES,
                             ids=[m[0] for m in S3_MODULES])
    def test_prime_left_out_of_the_shared_pass(self, monkeypatch, name,
                                               module):
        # |S3| = 6: under a cap of 10, 2^2 = 4 joins the shared pass and
        # 4 * 3^2 = 36 does not, so 3 runs its levels on all of A^T
        real, mods = cohomology._unit_pivots, []

        def spy(w, mod, rad):
            mods.append(mod)
            return real(w, mod, rad)

        monkeypatch.setattr(cohomology, "_unit_pivots", spy)
        want = cohomology.h1(module)
        assert mods[0] == 36
        mods.clear()
        monkeypatch.setattr(cohomology, "_MAX_MODULUS", 10)
        assert cohomology.h1(module) == want
        assert mods[0] == 4 and 9 in mods
        assert want == h1_bruteforce(module)


class TestInvariantChecks:
    def test_primes_disagreeing_on_vanishing_invariants_raises(
            self, monkeypatch):
        # every prime of |H| counts rank M^H as the invariants of valuation
        # a+1; a disagreement is reported even under python -O
        real = cohomology._smith_valuations

        def skewed(a, p, exp):
            vals = real(a, p, exp)
            return vals if p == 2 else [0 if v == exp else v for v in vals]

        module = perm_module(S3, S3.generators)
        assert cohomology.h1(module) == intlinalg.TRIVIAL_GROUP
        monkeypatch.setattr(cohomology, "_smith_valuations", skewed)
        with pytest.raises(RuntimeError):
            cohomology.h1(module)

    def test_coboundary_outside_cocycles_raises(self):
        z1 = np.array([[2, 0], [0, 2]])
        with pytest.raises(RuntimeError):
            quotient_mod_coboundaries(z1, [np.array([1, 0])])

    def test_modulus_too_large_for_int64(self):
        with pytest.raises(ValueError):
            cohomology._smith_valuations(np.eye(2, dtype=np.int64), 2, 40)
