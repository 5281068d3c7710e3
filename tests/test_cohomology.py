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
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form

from oracles import (coset_action, h1_bruteforce, quotient_mod_coboundaries,
                     random_element)
from psp4obs import cohomology, intlinalg
from psp4obs.permgroups import PermGroup, pmul
from psp4obs.zmodules import GIntModule, direct_sum, perm_module

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
    """(m x n integer matrix with m >= n, prime p, capped valuation)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 6))
    rows = draw(st.lists(st.lists(st.integers(-12, 12), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    return np.array(rows), draw(st.sampled_from((2, 3, 5))), \
        draw(st.integers(1, 4))


def _valuation(d, p, cap):
    v = 0
    while d and d % p == 0 and v < cap:
        d, v = d // p, v + 1
    return cap if d == 0 else v


class TestSmithValuations:
    @given(smith_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, case):
        a, p, exp = case
        ref = smith_normal_form(sympy.Matrix(a.tolist()))
        want = sorted(_valuation(int(ref[i, i]), p, exp)
                      for i in range(a.shape[1]))
        assert cohomology._smith_valuations(a, p, exp) == want


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
