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

The primes share one elimination of A^T modulo N, the product of their
p^(a+1) (777600 for PSp4(3) itself), in int64 with entries below N.  It
pivots only on units mod N.  Z/N is the product of the Z/p^(a+1) (CRT), so
each such pivot splits off an invariant of valuation 0 at every prime at
once.  Only the rows and columns left without a pivot then run through
each prime's Smith levels, modulo p^(a+1).  A prime joins the shared
elimination if N still stays within ``_MAX_MODULUS`` with it; any other
runs its levels on all of A^T.
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


def _unit_pivots(w: np.ndarray, mod: int, rad: int) -> tuple:
    """Eliminate ``w`` (int64, entries in [0, mod)) in place, pivoting on
    the units mod ``mod``: the entries prime to ``rad``, the product of its
    primes.  Each pivot moves to the diagonal and, its column cleared,
    splits off one Smith invariant that is a unit (the column operations
    that would clear its row touch no other row); a column without one
    moves to the end.  Returns the pivot count r and the rest w[r:, r:].
    """
    rank, end = 0, w.shape[1]  # columns from end on have no pivot
    while rank < end:
        hits = (np.gcd(w[rank:, rank], rad) == 1).nonzero()[0]
        if not hits.size:
            end -= 1
            w[:, [rank, end]] = w[:, [end, rank]]
            continue
        i = rank + hits[0]
        w[[rank, i], rank:] = w[[i, rank], rank:]
        pivot = w[rank, rank:]
        below = rank + 1 + w[rank + 1:, rank].nonzero()[0]
        if below.size:
            f = w[below, rank] * pow(int(pivot[0]), -1, mod) % mod
            w[below, rank:] = (w[below, rank:] - f[:, None] * pivot) % mod
        rank += 1
    return rank, w[rank:, rank:]


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
    out = []
    for v in range(exp):
        w = w[w.any(axis=1)]
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
    vals = _smith_valuations(_augmentation_matrix(module).T, p, exp + 1)
    return vals.count(exp + 1)


def h1(module: GIntModule) -> AbelianInvariants:
    """H^1(H, M) as a finite abelian group (divisor-chain invariants)."""
    e = module.group.order
    if e == 1:
        return TRIVIAL_GROUP
    vals = _prime_valuations(_augmentation_matrix(module).T, e)
    counts = {v.count(exp + 1) for _, exp, v in vals}
    if len(counts) > 1:
        raise RuntimeError(f"the primes of |H| = {e} disagree on the count "
                           f"of zero Smith invariants: {sorted(counts)}")
    return AbelianInvariants.from_elementary_divisors(
        [[p ** v for v in v_p if 0 < v <= exp] for p, exp, v_p in vals])
