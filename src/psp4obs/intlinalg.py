"""Exact linear algebra over the integers.

Everything here manipulates matrices with (arbitrary-precision) integer
entries and unimodular row/column transforms.  The two normal forms are

* row Hermite normal form:  U * A = H  with U unimodular, H in row echelon
  form with positive pivots and reduced entries above each pivot;
* Smith normal form:  U * A * V = S  with S diagonal and each diagonal
  entry dividing the next.

Matrices are numpy 2-d arrays.  Computations run on dtype ``int64`` while a
certified bound guarantees no overflow, and are promoted to dtype ``object``
(exact Python integers) the moment the bound is at risk.  All results are
exact; ``int64`` is only ever an optimisation.

:class:`KernelAccumulator` maintains a saturated basis of the left kernel
of a growing block matrix ``[B1 | B2 | ...]``.  Saturation is automatic:
the kernel rows are part of a unimodular basis of Z^n, so an integer
vector in their rational span is an integer combination of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import gcd, lcm, prod

import numpy as np

# largest magnitude we allow inside an int64 working matrix; one more
# elimination step starting below this bound cannot overflow 2**63 - 1
_INT64_SAFE = 2**62
# a float64 product whose exact partial sums all stay below this bound in
# magnitude is computed exactly: every integer below 2**53 is a double
_FLOAT_EXACT = 2**53


def as_int_array(data) -> np.ndarray:
    """Coerce ``data`` to a 2-d integer ndarray (int64 if it fits)."""
    a = np.asarray(data)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.dtype == object or np.issubdtype(a.dtype, np.integer):
        return a
    if np.issubdtype(a.dtype, np.floating):
        raise ValueError("refusing float input for exact arithmetic")
    return a.astype(object)


def maxabs(a: np.ndarray) -> int:
    """Largest absolute value of an entry (0 for an empty array)."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the smallest signed integer dtype that holds its entries."""
    return a.astype(np.min_scalar_type(-1 - maxabs(a)))


def mat_mul(a, b) -> np.ndarray:
    """Exact matrix product: int64, or object once int64 could overflow.

    With ``maxabs(a) * maxabs(b) * inner < 2**53`` every partial sum is an
    integer below 2**53, so a float64 (BLAS) product is exact.
    """
    a = as_int_array(a)
    b = as_int_array(b)
    if a.dtype != object and b.dtype != object:
        bound = maxabs(a) * maxabs(b) * a.shape[1]
        if bound < _FLOAT_EXACT:
            return (a.astype(np.float64) @ b.astype(np.float64)).astype(
                np.int64)
        if bound < _INT64_SAFE:
            return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


def identity(n: int, dtype=np.int64) -> np.ndarray:
    return np.eye(n, dtype=dtype)


@dataclass(frozen=True)
class AbelianInvariants:
    """A finitely generated abelian group Z^free_rank + sum Z/d_i.

    ``torsion`` is the invariant-factor chain: each d_i > 1 and d_i | d_{i+1}.
    """

    free_rank: int
    torsion: tuple

    @classmethod
    def from_elementary_divisors(cls, chains) -> "AbelianInvariants":
        """The finite group sum Z/q over the prime powers q of ``chains``,
        one list for each prime."""
        chains = [sorted(ds, reverse=True) for ds in chains]
        factors = [prod(ds) for ds in zip_longest(*chains, fillvalue=1)]
        return cls(0, tuple(reversed(factors)))

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group")
        return prod(self.torsion)

    def exponent(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group")
        return lcm(*self.torsion) if self.torsion else 1

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianInvariants(0, ())


def prime_powers(n: int) -> list:
    """(p, a) for each prime power p^a exactly dividing n, p ascending."""
    out, p = [], 2
    while n > 1:
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    return out


def _promote(w: np.ndarray) -> np.ndarray:
    return w if w.dtype == object else w.astype(object)


class _Workspace:
    """A mutable matrix supporting unimodular row operations.

    Tracks an upper bound on entry magnitude; int64 storage is promoted to
    exact object dtype before any operation that could overflow.
    """

    def __init__(self, w: np.ndarray):
        w = np.array(w, copy=True)
        if w.dtype != object:
            w = w.astype(np.int64)
        self.w = w
        self.bound = maxabs(w)

    def _ensure_update(self, qmax: int, prow_max: int):
        """Promote to exact storage unless ``bound + qmax * prow_max`` is
        provably below the int64 safety margin; keep ``bound`` current."""
        if self.w.dtype == object:
            return
        projected = self.bound + qmax * prow_max
        if projected < _INT64_SAFE:
            self.bound = projected
            return
        self.bound = maxabs(self.w)  # retighten with an exact scan
        projected = self.bound + qmax * prow_max
        if projected < _INT64_SAFE:
            self.bound = projected
        else:
            self.w = _promote(self.w)

    def swap(self, i: int, j: int):
        if i != j:
            self.w[[i, j]] = self.w[[j, i]]

    def negate(self, i: int):
        self.w[i] = -self.w[i]

    def reduce_rows(self, rows: np.ndarray, col: int, pivot_row: int):
        """Subtract multiples of ``pivot_row`` so that ``col`` entries of
        ``rows`` become remainders mod the pivot."""
        piv = self.w[pivot_row, col]
        q = self.w[rows, col] // piv
        nz = q != 0
        if not nz.any():
            return
        rows = rows[nz]
        q = q[nz]
        prow_max = int(abs(self.w[pivot_row]).max())
        qmax = int(abs(q).max())
        self._ensure_update(qmax, prow_max)
        self.w[rows] -= np.outer(q, self.w[pivot_row])


def _echelon(ws: _Workspace, col_lo: int, col_hi: int, row_start: int,
             reduce_above: bool) -> int:
    """Row-reduce columns ``[col_lo, col_hi)`` to echelon form.

    Returns the number of pivots found.  Rows below ``row_start + pivots``
    end up zero throughout the column range.  With ``reduce_above`` the
    result is genuine HNF on that range (positive pivots, entries above
    reduced); otherwise rows above ``row_start`` are never touched.
    """
    m = ws.w.shape[0]
    r = row_start
    for c in range(col_lo, col_hi):
        if r >= m:
            break
        while True:
            colvals = ws.w[r:, c]
            nz = np.nonzero(colvals)[0]
            if nz.size == 0:
                break
            k = nz[int(np.argmin(np.abs(colvals[nz])))] + r
            ws.swap(r, k)
            if nz.size == 1:
                break
            rest = np.arange(r + 1, m)
            ws.reduce_rows(rest, c, r)
        if ws.w[r, c] != 0:
            if ws.w[r, c] < 0:
                ws.negate(r)
            if reduce_above and r > 0:
                ws.reduce_rows(np.arange(r), c, r)
            r += 1
    return r - row_start


def hnf(a) -> tuple:
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular, ``U @ a == H``, ``H`` in row
    echelon form with positive pivots and entries above each pivot reduced
    into ``[0, pivot)``.

    >>> H, U = hnf([[2, 4], [3, 7]])
    >>> H.tolist()
    [[1, 1], [0, 2]]
    """
    a = as_int_array(a)
    m, n = a.shape
    ws = _Workspace(np.concatenate([a, identity(m)], axis=1, dtype=a.dtype)
                    if a.dtype == object else
                    np.concatenate([a.astype(np.int64), identity(m)], axis=1))
    _echelon(ws, 0, n, 0, reduce_above=True)
    w = ws.w
    return w[:, :n], w[:, n:]


def hnf_basis(a) -> np.ndarray:
    """Nonzero rows of the HNF of ``a``: a canonical basis of the row space."""
    h, _ = hnf(a)
    return h[(h != 0).any(axis=1)]


def kernel_saturated(a) -> np.ndarray:
    """Basis of the saturated left kernel ``{x in Z^m : x @ a = 0}``.

    The returned lattice is saturated in Z^m (the quotient is torsion-free),
    because its rows extend to a unimodular basis.  Rows are in HNF.
    """
    h, u = hnf(a)
    zero = ~(h != 0).any(axis=1)
    if not zero.any():
        return np.zeros((0, len(h)), dtype=np.int64)
    return hnf_basis(u[zero])


def saturate_rows(a) -> np.ndarray:
    """HNF basis of the saturation of the row space in Z^n.

    The saturation is ``span_Q(rows) intersect Z^n``; it is computed by
    taking the integral orthogonal complement twice, which stays exact and
    avoids rational arithmetic.
    """
    a = as_int_array(np.atleast_2d(np.asarray(a)))
    comp = kernel_saturated(np.ascontiguousarray(a.T))
    if comp.shape[0] == 0:
        return np.asarray(identity(a.shape[1]))
    return kernel_saturated(np.ascontiguousarray(comp.T))


def snf(a) -> tuple:
    """Smith normal form.

    Returns ``(S, U, V)`` with ``U @ a @ V == S``, ``U`` and ``V``
    unimodular, ``S`` diagonal with nonnegative entries forming a
    divisibility chain ``S[0,0] | S[1,1] | ...``.

    >>> S, U, V = snf([[2, 0], [0, 3]])
    >>> [int(S[i, i]) for i in range(2)]
    [1, 6]
    """
    a = as_int_array(a)
    m, n = a.shape
    # row workspace [A | I_m], column workspace tracked separately
    ws = _Workspace(np.concatenate(
        [a if a.dtype == object else a.astype(np.int64),
         identity(m, a.dtype if a.dtype == object else np.int64)], axis=1))
    v = identity(n).astype(object)

    def col_ops():
        nonlocal v
        # transpose the A-part, reduce, transpose back; update V alongside
        block = ws.w[:, :n]
        wst = _Workspace(np.concatenate(
            [block.T, identity(n, block.dtype if block.dtype == object else np.int64)],
            axis=1))
        _echelon(wst, 0, m, 0, reduce_above=True)
        newat = wst.w[:, :m]
        q = wst.w[:, m:]
        if ws.w.dtype != object and (wst.w.dtype == object or
                                     maxabs(newat) >= _INT64_SAFE):
            ws.w = _promote(ws.w)
        ws.w[:, :n] = newat.T
        ws.bound = max(ws.bound, maxabs(ws.w))
        v = mat_mul(v, q.T).astype(object)

    for _ in range(200):
        _echelon(ws, 0, n, 0, reduce_above=True)
        if not _has_offdiag(ws.w[:, :n]):
            break
        col_ops()
        if not _has_offdiag(ws.w[:, :n]):
            break
    else:  # pragma: no cover
        raise RuntimeError("Smith reduction failed to converge")

    # sort the diagonal (zeros last) and repair divisibility
    ws.w = _promote(ws.w)
    _smith_fixup(ws, v, m, n)
    w = ws.w
    return w[:, :n], w[:, n:], np.asarray(v)


def _has_offdiag(block: np.ndarray) -> bool:
    return np.count_nonzero(block) > np.count_nonzero(block.diagonal())


def _smith_fixup(ws: _Workspace, v: np.ndarray, m: int, n: int):
    """Given diagonal ``ws.w[:, :n]``, enforce the divisor chain in place."""
    k = min(m, n)

    def swap_diag(i):
        ws.swap(i, i + 1)
        ws.w[:, [i, i + 1]] = ws.w[:, [i + 1, i]]
        v[:, [i, i + 1]] = v[:, [i + 1, i]]

    for i in range(k):
        if ws.w[i, i] < 0:
            ws.negate(i)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = int(ws.w[i, i]), int(ws.w[i + 1, i + 1])
            if a == 0 and b != 0:
                swap_diag(i)
                changed = True
                break
            if a and b and b % a:
                # merge columns, then locally rediagonalise:
                # [[a,0],[0,b]] -> [[gcd,0],[0,lcm]]
                ws.w[:, i] += ws.w[:, i + 1]
                v[:, i] = v[:, i] + v[:, i + 1]
                _two_by_two(ws, v, i)
                changed = True
                break


def _two_by_two(ws: _Workspace, v: np.ndarray, i: int):
    """Smith-reduce the 2x2 block at rows/columns (i, i+1) in place.

    Assumes rows i, i+1 vanish outside columns i, i+1 within the matrix
    part (and vice versa), which holds after a diagonal column merge.
    """
    j = i + 1

    def row_clear():
        while ws.w[j, i] != 0:
            if ws.w[i, i] == 0 or abs(ws.w[j, i]) < abs(ws.w[i, i]):
                ws.swap(i, j)
                continue
            q = ws.w[j, i] // ws.w[i, i]
            ws.w[j] = ws.w[j] - q * ws.w[i]

    def col_clear():
        while ws.w[i, j] != 0:
            if ws.w[i, i] == 0 or abs(ws.w[i, j]) < abs(ws.w[i, i]):
                ws.w[:, [i, j]] = ws.w[:, [j, i]]
                v[:, [i, j]] = v[:, [j, i]]
                continue
            q = ws.w[i, j] // ws.w[i, i]
            ws.w[:, j] = ws.w[:, j] - q * ws.w[:, i]
            v[:, j] = v[:, j] - q * v[:, i]

    for _ in range(200):
        row_clear()
        col_clear()
        if ws.w[j, i] == 0 and ws.w[i, j] == 0:
            break
    else:  # pragma: no cover
        raise RuntimeError("2x2 Smith step failed to converge")
    for r in (i, j):
        if ws.w[r, r] < 0:
            ws.negate(r)


def smith_diagonal(a) -> list:
    """The diagonal of the Smith form (including 1s and trailing 0s)."""
    s, _, _ = snf(a)
    k = min(s.shape)
    return [int(s[i, i]) for i in range(k)]


def quotient_invariants(ambient_rank: int, rows) -> AbelianInvariants:
    """Invariants of ``Z^ambient_rank / (row span of rows)``.

    >>> str(quotient_invariants(2, [[2, 0], [0, 3]]))
    'Z/6'
    """
    rows = as_int_array(rows)
    if rows.shape[0] == 0 or rows.size == 0:
        return AbelianInvariants(ambient_rank, ())
    if rows.shape[1] != ambient_rank:
        raise ValueError("row length does not match ambient rank")
    if rows.shape[0] > 200:
        rows = hnf_basis(rows)  # workspace reduction before Smith
    d = smith_diagonal(rows)
    nonzero = [x for x in d if x != 0]
    free = ambient_rank - len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    return AbelianInvariants(free, torsion)


def solve_in_lattice(basis, target):
    """Integer coordinates of ``target`` in the row lattice of ``basis``.

    Returns ``x`` with ``x @ basis == target``, or ``None`` if ``target``
    is not in the integer row span.
    """
    basis = as_int_array(basis)
    t = as_int_array(target).reshape(-1)
    if basis.shape[1] != t.shape[0]:
        raise ValueError("dimension mismatch")
    h, u = hnf(basis)
    m = basis.shape[0]
    pivots = []
    for i in range(m):
        nz = np.nonzero(h[i])[0]
        if nz.size:
            pivots.append((i, int(nz[0])))
    t = t.astype(object)
    y = np.zeros(m, dtype=object)
    for i, c in pivots:
        if t[c] % h[i, c]:
            return None
        q = t[c] // h[i, c]
        y[i] = q
        if q:
            t = t - q * h[i].astype(object)
    if any(x != 0 for x in t):
        return None
    return mat_mul(y.reshape(1, -1), u).reshape(-1)


def minimal_multiplier(basis, target, bound=None):
    """Least ``n >= 1`` with ``n * target`` in the integer row span of ``basis``.

    Returns ``n``; raises :class:`ValueError` if no multiple lies in the
    span, or if the answer exceeds ``bound``.

    >>> minimal_multiplier([[2, 0], [0, 3]], [1, 1])
    6
    """
    basis = as_int_array(basis)
    t = as_int_array(target).reshape(-1)
    s, u, v = snf(basis)
    c = mat_mul(t.reshape(1, -1), v).reshape(-1)
    k = min(s.shape)
    d = [int(s[i, i]) for i in range(k)]
    n = 1
    for j in range(len(c)):
        dj = d[j] if j < k else 0
        cj = int(c[j])
        if dj == 0:
            if cj != 0:
                raise ValueError("no integer multiple lies in the lattice")
            continue
        n = lcm(n, dj // gcd(dj, cj)) if cj else n
    if bound is not None and n > bound:
        raise ValueError(f"minimal multiplier {n} exceeds bound {bound}")
    return n


def unimodular_inverse(a) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix."""
    a = as_int_array(a)
    h, u = hnf(a)
    if h.shape[0] != h.shape[1] or not np.array_equal(h, identity(len(h))):
        raise ValueError("matrix is not unimodular")
    return u


class KernelAccumulator:
    """Saturated left kernel of a growing block matrix ``[B1 | B2 | ...]``.

    After ``add_block(B)`` calls, :meth:`kernel` is a saturated basis of
    ``{x in Z^n : x @ Bi = 0 for all i}``, whose rank ``corank`` is
    available at any point.

    The invariant: ``self.u`` holds rows of a unimodular matrix; the first
    ``self.rank`` rows have nonzero image in the processed columns (in
    echelon position) and are frozen, the remaining rows kill every
    processed column.
    """

    def __init__(self, n: int):
        self.n = n
        self.u = identity(n, np.int64)
        self.rank = 0

    @property
    def corank(self) -> int:
        return self.n - self.rank

    def add_block(self, block) -> int:
        """Process more columns; returns the new corank."""
        block = as_int_array(block)
        if block.shape[0] != self.n:
            raise ValueError("block has wrong number of rows")
        q = block.shape[1]
        if q == 0 or self.corank == 0:
            return self.corank
        free = self.u[self.rank:]
        c = mat_mul(free, block)
        if not any(x != 0 for x in c.ravel()):
            return self.corank
        if c.dtype == object or free.dtype == object:
            w = np.concatenate([c.astype(object), free.astype(object)], axis=1)
        else:
            w = np.concatenate([c, free], axis=1)
        ws = _Workspace(w)
        npiv = _echelon(ws, 0, q, 0, reduce_above=False)
        newu = ws.w[:, q:]
        if newu.dtype != self.u.dtype and self.u.dtype != object:
            self.u = self.u.astype(object)
        if self.u.dtype == object and newu.dtype != object:
            newu = newu.astype(object)
        self.u = np.concatenate([self.u[:self.rank], newu], axis=0)
        self.rank += npiv
        return self.corank

    def kernel(self) -> np.ndarray:
        """Current saturated kernel basis, in HNF."""
        if self.corank == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        return hnf_basis(self.u[self.rank:])
