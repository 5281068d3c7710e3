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
A over Z/p^(a+1), in int64 with entries below p^(a+1), thus gives each
nonzero d_i its valuation v <= a and each zero d_i the valuation a+1:
the p-part of H^1 is the sum of Z/p^v over 0 < v <= a, and every prime
counts rank M^H as the invariants of valuation a+1.
"""

from __future__ import annotations

import numpy as np

from . import intlinalg
from .intlinalg import AbelianInvariants, TRIVIAL_GROUP, prime_powers
from .zmodules import GIntModule

# entries are reduced below the modulus q, so a product of two stays
# below q^2 <= 2^62 and an int64 elimination step cannot overflow
_MAX_MODULUS = 2**31


def invariants_basis(module: GIntModule) -> np.ndarray:
    """HNF basis of the fixed sublattice M^H = {v : v M(g) = v}."""
    if not module.gens:
        return np.asarray(intlinalg.identity(module.rank))
    return intlinalg.kernel_saturated(_augmentation_matrix(module))


def _augmentation_matrix(module: GIntModule) -> np.ndarray:
    """A = [M(g_1) - 1 | ... | M(g_k) - 1], an n x kn matrix."""
    ident = intlinalg.identity(module.rank)
    return np.hstack([np.asarray(g) - ident for g in module.gens])


def _smith_valuations(a: np.ndarray, p: int, exp: int) -> list:
    """p-adic valuations, capped at ``exp``, of the n Smith invariants of
    the m x n matrix ``a`` (m >= n): its Smith form over Z/p^exp.

    Level v pivots on units mod p^(exp-v) only.  Clearing a pivot's column
    splits it off as one invariant of valuation v (the column operations
    that would clear its row touch no other row); the rows left over are
    divisible by p and divided by p for the next level, and the pivot
    columns, zero in them, drop out.
    """
    if p ** exp > _MAX_MODULUS:
        raise ValueError(f"modulus {p}^{exp} is too large for int64 "
                         f"elimination")
    w = (a % p ** exp).astype(np.int64)
    out = []
    for v in range(exp):
        w = w[w.any(axis=1)]
        if not w.size:
            break
        mod = p ** (exp - v)
        rank = 0  # pivot rows found at this level are w[:rank]
        live = []  # columns without a pivot at this level
        for j in range(w.shape[1]):
            hits = (w[rank:, j] % p).nonzero()[0]
            if not hits.size:
                live.append(j)
                continue
            i = rank + hits[0]
            w[[rank, i]] = w[[i, rank]]
            pivot = w[rank]
            rank += 1
            below = rank + w[rank:, j].nonzero()[0]
            if below.size:
                f = w[below, j] * pow(int(pivot[j]), -1, mod) % mod
                w[below] = (w[below] - f[:, None] * pivot) % mod
        out += [v] * rank
        w = w[rank:, live] // p
    return out + [exp] * (a.shape[1] - len(out))


def h0(module: GIntModule) -> int:
    """Rank of the invariants M^H: the number of zero Smith invariants of
    A, read off the smallest prime dividing |H|."""
    if module.group.order == 1:
        return module.rank
    p, exp = prime_powers(module.group.order)[0]
    vals = _smith_valuations(_augmentation_matrix(module).T, p, exp + 1)
    return vals.count(exp + 1)


def h1(module: GIntModule) -> AbelianInvariants:
    """H^1(H, M) as a finite abelian group (divisor-chain invariants)."""
    e = module.group.order
    if e == 1:
        return TRIVIAL_GROUP
    a = _augmentation_matrix(module).T
    counts, chains = set(), []  # per prime, the elementary divisors
    for p, exp in prime_powers(e):
        vals = _smith_valuations(a, p, exp + 1)
        counts.add(vals.count(exp + 1))
        chains.append([p ** v for v in vals if 0 < v <= exp])
    if len(counts) > 1:
        raise RuntimeError(f"the primes of |H| = {e} disagree on the count "
                           f"of zero Smith invariants: {sorted(counts)}")
    return AbelianInvariants.from_elementary_divisors(chains)
