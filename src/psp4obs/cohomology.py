"""First integral cohomology of finite groups acting on free Z-modules.

For a finite group H acting on M = Z^n (rows, right action), a 1-cocycle
is a map c: H -> M with c(gh) = c(g) M(h) + c(h), and coboundaries are
c_m(g) = m (M(g) - 1).  Since H is finite and M is torsion-free, H^1(H, M)
is a finite abelian group, killed by e = |H|.

Only the matrices of the stored generators g_1 .. g_k are needed.  From
0 -> M -> M (x) Q -> M (x) Q/Z -> 0 and H^1(H, M (x) Q) = 0 (Brown,
*Cohomology of Groups*, ch. III),

    H^1(H, M) = L / (e Z^n + M^H),  L = {x : x (M(g_i) - 1) = 0 mod e},

and in the Smith coordinates of A = [M(g_1) - 1 | ... | M(g_k) - 1], with
invariants d_1 .. d_n, this is the sum of Z / gcd(d_i, e) over d_i != 0.
e must be |H|, not the exponent of H (V4 on its augmentation ideal has
H^1 = Z/4).  For each p^a exactly dividing e, the Smith form of A over
Z/p^a gives min(v_p(d_i), a) in int64, with entries kept below p^a.
Over Z/p^a the d_i = 0 look like those divisible by p^a; there are
rank M^H of them, n minus the rank of A over F_l for the least prime l
not dividing e.  That is exact by Maschke's theorem: M^H (x) Z_(l) is
the direct summand of M (x) Z_(l) cut out by the averaging idempotent,
so the fixed points of M / l M have dimension rank M^H.
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


def _least_prime_not_dividing(e: int) -> int:
    p = 2
    while e % p == 0 or any(p % d == 0 for d in range(2, p)):
        p += 1
    return p


def _smith_valuations(a: np.ndarray, p: int, exp: int) -> list:
    """p-adic valuations, capped at ``exp``, of the n Smith invariants of
    the m x n matrix ``a`` (m >= n): its Smith form over Z/p^exp.

    Level v pivots on units mod p^(exp-v) only.  Clearing a pivot's column
    splits it off as one invariant of valuation v (the column operations
    that would clear its row touch no other row); the rows left over are
    divisible by p and divided by p for the next level.
    """
    if p ** exp > _MAX_MODULUS:
        raise ValueError(f"modulus {p}^{exp} is too large for int64 "
                         f"elimination")
    n = a.shape[1]
    w = (a % p ** exp).astype(np.int64)
    out = []
    for v in range(exp):
        w = w[w.any(axis=1)]
        if not len(w) or len(out) == n:
            break
        mod = p ** (exp - v)
        rank = 0  # pivot rows found at this level are w[:rank]
        for j in range(n):
            hits = np.flatnonzero(w[rank:, j] % p)
            if not hits.size:
                continue
            i = rank + hits[0]
            w[[rank, i]] = w[[i, rank]]
            pivot = w[rank]
            rank += 1
            below = rank + np.flatnonzero(w[rank:, j])
            if below.size:
                f = w[below, j] * pow(int(pivot[j]), -1, mod) % mod
                w[below] = (w[below] - np.outer(f, pivot)) % mod
        out += [v] * rank
        w = w[rank:] // p
    return out + [exp] * (n - len(out))


def h0(module: GIntModule) -> int:
    """Rank of the invariants M^H: n minus the rank of A over F_l, for the
    least prime l not dividing |H| (exact by Maschke's theorem)."""
    if not module.gens:
        return module.rank
    ell = _least_prime_not_dividing(module.group.order)
    return module.rank - _smith_valuations(
        _augmentation_matrix(module).T, ell, 1).count(0)


def h1(module: GIntModule) -> AbelianInvariants:
    """H^1(H, M) as a finite abelian group (divisor-chain invariants)."""
    e = module.group.order
    if e == 1 or module.rank == 0:
        return TRIVIAL_GROUP
    a = _augmentation_matrix(module).T
    zeros = h0(module)
    chains = []  # per prime, the elementary divisors
    for p, exp in prime_powers(e):
        vals = _smith_valuations(a, p, exp)
        full = vals.count(exp) - zeros
        if full < 0:
            raise RuntimeError(
                f"{vals.count(exp)} Smith invariants vanish mod {p}^{exp}, "
                f"fewer than the rank {zeros} of the invariants")
        chains.append([p ** exp] * full
                      + [p ** v for v in vals if 0 < v < exp])
    return AbelianInvariants.from_elementary_divisors(chains)
