"""First integral cohomology of finite groups acting on free Z-modules.

H acts on M = Z^n by rows (right action), and H^1(H, M) comes from the
matrices of the stored generators g_1 .. g_k alone.  Let
A = [M(g_1) - 1 | ... | M(g_k) - 1], with Smith invariants d_1 .. d_n.
From 0 -> M -> M (x) Q -> M (x) Q/Z -> 0 and H^1(H, M (x) Q) = 0 (Brown,
*Cohomology of Groups*, ch. III), H^1(H, M) is the torsion of coker A,
{x in Q^n : x A integral} / (Z^n + (M (x) Q)^H), the sum of Z/d_i over
the d_i != 0; the d_i = 0 number rank M^H.  |H| kills H^1(H, M) (its
exponent need not: V4 on its augmentation ideal has H^1 = Z/4), so every
nonzero d_i divides |H|.  For p^a exactly dividing |H|, the Smith form of
A over Z/p^(a+1) thus gives each nonzero d_i its valuation v <= a and each
zero d_i the valuation a+1: the p-part of H^1 is the sum of Z/p^v over
0 < v <= a, and every prime counts rank M^H as the invariants of valuation
a+1.

Any generating set gives H^1, and the g_i^-1 generate H.  The dual
M~(g) = M(g^-1)^T sends g_i^-1 to M(g_i)^T, so H^1(H, M~) comes from A's
blocks transposed, [M(g_1)^T - 1 | ... | M(g_k)^T - 1], with no inverse.

The primes share one elimination of A^T modulo N, the product of their
p^(a+1) (777600 for PSp4(3)), on entries below N.  It pivots only on units
mod N.  Z/N is the product of the Z/p^(a+1) (CRT), so each such pivot
splits off an invariant of valuation 0 at every prime at once.  Only the
rows and columns left without a pivot then run through each prime's Smith
levels, modulo p^(a+1).  A prime joins the shared elimination if N still
stays within ``_MAX_MODULUS`` with it; any other runs its levels on all of
A^T.

Every elimination, shared or at one Smith level, runs in rounds.  A round
picks for each column the sparsest row with a unit there (Markowitz's
rule) and keeps these pivots in two levels, as in structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO '90): no pivot row meets a
pivot column taken after it, a first-level pivot's row meets no other
pivot column, and a second-level pivot's row meets first-level pivot
columns only.  One product on the pivot rows clears the second-level rows'
first-level entries, so that the pivot rows and columns form a diagonal
block D of units.  One Schur complement, a single matrix product, then
clears the pivot columns from all other rows, and the next round works on
what is left.
"""

from __future__ import annotations

import numpy as np

from . import intlinalg
from .intlinalg import AbelianInvariants, TRIVIAL_GROUP, prime_powers
from .zmodules import GIntModule

# entries are reduced below the modulus q, so the elementwise product of
# two, in int64, stays below q^2 <= 2^62 and cannot overflow; each product
# of a round, the clearing and the Schur complement, sums up to one such
# term per pivot, and _mat_mul_mod keeps it exact: float64 while
# (q-1)^2 times the pivot count stays below 2^53, beyond that
# intlinalg.mat_mul by its own bounds (int64 below 2^62, object beyond)
_MAX_MODULUS = 2**31


def invariants_basis(module: GIntModule) -> np.ndarray:
    """HNF basis of the fixed sublattice M^H = {v : v M(g) = v}."""
    if not module.gens:
        return np.asarray(intlinalg.identity(module.rank))
    return intlinalg.kernel_saturated(_augmentation_matrix(module.gens))


def _augmentation_matrix(mats) -> np.ndarray:
    """A = [N_1 - 1 | ... | N_k - 1], an n x kn matrix, for k >= 1."""
    ident = intlinalg.identity(len(mats[0]))
    return np.hstack([np.asarray(g) - ident for g in mats])


def _mat_mul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """(a @ b) mod q, in int64, for int64 ``a`` and ``b`` with entries in
    [0, q).  Each term of a sum is at most (q-1)^2, so the bound comes from
    q and the inner size alone, with no scan of the entries: float64 is
    exact while (q-1)^2 * inner < 2^53, and ``intlinalg.mat_mul`` takes
    the product beyond that."""
    if (q - 1) ** 2 * a.shape[1] < 2**53:
        return np.fmod(a.astype(np.float64) @ b.astype(np.float64),
                       q).astype(np.int64)
    return np.asarray(intlinalg.mat_mul(a, b) % q, dtype=np.int64)


def _unit_pivots(w: np.ndarray, mod: int, rad: int) -> tuple:
    """Eliminate ``w`` (int64, entries in [0, mod)) in rounds of pivots on
    the units mod ``mod``: the entries prime to ``rad``, the product of its
    primes.  A round takes, for each column with a unit, the sparsest row
    with a unit there, and visits these candidates sparsest row first.  It
    accepts a candidate unless a row already taken meets its column or is
    its row, or its row meets the column of a second-level pivot.  An
    accepted candidate is second-level if its row meets a column already
    taken, and first-level otherwise.  The pivot rows and columns then
    form a block D + N, with D the diagonal of units and N only on
    (second-level row, first-level column), so N D^-1 N = 0, and one
    product on the pivot rows clears N: each second-level row less its
    first-level entries, times D^-1, times the first-level rows.  One Schur
    complement then clears the pivot columns from every other row: the
    matrix becomes [D X; 0 S], the column operations that clear X touch no
    other row, and the Smith form is I + Smith(S).  The pivot rows and
    columns and the rows left zero are dropped, and the rounds stop when S
    has no unit.  Returns the pivot count r and S, the rows and columns
    without a pivot (rows of zeros dropped).
    """
    rank = 0
    while True:
        # gcd(0, rad) = rad, so no zero counts as a unit
        units = np.gcd(w, rad) == 1
        cols = units.any(axis=0).nonzero()[0]
        if not cols.size:
            return rank, w
        weight = np.count_nonzero(w, axis=1)
        by_weight = np.argsort(weight, kind="stable")
        # candidate i: column cols[i] and the sparsest row with a unit there
        rows = by_weight[units[by_weight].argmax(axis=0)[cols]]
        meets = w[rows][:, cols] != 0
        apart = ~(meets | (rows[:, None] == rows))
        clear = ~meets.T
        free = np.ones(cols.size, dtype=bool)
        # candidates whose row meets a column taken this round
        touched = np.zeros(cols.size, dtype=bool)
        first, second = [], []
        for i in np.argsort(weight[rows], kind="stable").tolist():
            if free[i]:
                free &= apart[i]
                if touched[i]:
                    second.append(i)
                    free &= clear[i]
                else:
                    first.append(i)
                    touched |= meets[:, i]
        take = first + second
        prow, pcol = rows[take], cols[take]
        inv = np.array([pow(d, -1, mod) for d in w[prow, pcol].tolist()],
                       dtype=np.int64)
        keep = np.ones(w.shape[1], dtype=bool)
        keep[pcol] = False
        piv = w[prow][:, keep]
        n1 = len(first)
        if second:
            f = w[prow[n1:]][:, pcol[:n1]] * inv[:n1] % mod
            piv[n1:] = (piv[n1:] - _mat_mul_mod(f, piv[:n1], mod)) % mod
        other = np.ones(w.shape[0], dtype=bool)
        other[prow] = False
        others = w[other]
        f = others[:, pcol] * inv % mod
        w = (others[:, keep] - _mat_mul_mod(f, piv, mod)) % mod
        w = w[w.any(axis=1)]
        rank += len(prow)


def _smith_valuations(a: np.ndarray, p: int, exp: int) -> list:
    """p-adic valuations, capped at ``exp``, of the n Smith invariants of
    the m x n matrix ``a`` (m >= n): its Smith form over Z/p^exp.

    Level v pivots on the units mod p^(exp-v), each an invariant of
    valuation v; the rows and columns left over are divisible by p and
    divided by p for the next level.
    """
    if p ** exp > _MAX_MODULUS:
        raise ValueError(f"modulus {p}^{exp} is too large for int64 "
                         f"elimination")
    w = (a % p ** exp).astype(np.int64)
    w = w[w.any(axis=1)]
    out = []
    for v in range(exp):
        if not w.size:
            break
        rank, rest = _unit_pivots(w, p ** (exp - v), p)
        out += [v] * rank
        w = rest // p
    return out + [exp] * (a.shape[1] - len(out))


def _prime_valuations(a: np.ndarray, order: int) -> list:
    """(p, exp, valuations) for each p^exp exactly dividing ``order``: the
    p-adic valuations, capped at exp+1, of the n Smith invariants of the
    m x n matrix ``a`` (m >= n), by the shared elimination of the module
    docstring.
    """
    powers = prime_powers(order)
    mod, rad, shared = 1, 1, set()
    for p, exp in powers:
        if mod * p ** (exp + 1) <= _MAX_MODULUS:
            mod, rad = mod * p ** (exp + 1), rad * p
            shared.add(p)
    # mod 1, with no prime shared, ends in _smith_valuations' ValueError
    rank, rest = _unit_pivots((a % mod).astype(np.int64), mod, rad)
    return [(p, exp, [0] * rank + _smith_valuations(rest, p, exp + 1)
             if p in shared else _smith_valuations(a, p, exp + 1))
            for p, exp in powers]


def h0(module: GIntModule) -> int:
    """Rank of the invariants M^H: the number of zero Smith invariants of
    A, read off the smallest prime dividing |H|."""
    if module.group.order == 1:
        return module.rank
    p, exp = prime_powers(module.group.order)[0]
    vals = _smith_valuations(_augmentation_matrix(module.gens).T, p, exp + 1)
    return vals.count(exp + 1)


def h1(module: GIntModule) -> AbelianInvariants:
    """H^1(H, M) as a finite abelian group (divisor-chain invariants)."""
    return _h1(module.gens, module.group.order)


def h1_dual(module: GIntModule) -> AbelianInvariants:
    """H^1(H, M~) of the dual M~(g) = M(g^-1)^T, from M's own matrices."""
    return _h1([g.T for g in module.gens], module.group.order)


def _h1(mats, e: int) -> AbelianInvariants:
    """H^1 of a group of order ``e`` whose generators act by ``mats``."""
    if e == 1:
        return TRIVIAL_GROUP
    vals = _prime_valuations(_augmentation_matrix(mats).T, e)
    counts = {v.count(exp + 1) for _, exp, v in vals}
    if len(counts) > 1:
        raise RuntimeError(f"the primes of |H| = {e} disagree on the count "
                           f"of zero Smith invariants: {sorted(counts)}")
    return AbelianInvariants.from_elementary_divisors(
        [[p ** v for v in v_p if 0 < v <= exp] for p, exp, v_p in vals])
