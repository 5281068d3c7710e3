"""Exact linear algebra over the integers.

Everything here manipulates matrices with (arbitrary-precision) integer
entries and unimodular row/column transforms.  The two normal forms are

* row Hermite normal form:  U * A = H  with U unimodular, H in row echelon
  form with positive pivots and reduced entries above each pivot;
* Smith normal form:  U * A * V = S  with S diagonal and each diagonal
  entry dividing the next.  Row Hermite forms of A and of its transpose
  alternate until A is diagonal; one pass of closed-form Bezout steps,
  (d_i, d_j) -> (gcd, lcm), then makes the divisor chain.

The Hermite form is two passes: a forward pass of Euclid steps below each
pivot makes an echelon form, and a reduction above the pivots follows.
Kernels and complements are read off the Hermite form.  Membership and
the least multiple of a vector in a lattice need only the forward pass:
one back-substitution reads the vector's coordinates on the nonzero rows
of any echelon form, which are a basis of the lattice.  The Smith form
serves only the invariant factors of a quotient.

Matrices are numpy 2-d arrays.  Computations run on dtype ``int64`` while a
certified bound guarantees no overflow, and are promoted to dtype ``object``
(exact Python integers) the moment the bound is at risk.  All results are
exact; ``int64`` is only ever an optimisation.
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
    """Coerce ``data`` to a 2-d integer ndarray.

    Integer data beyond int64 becomes an object array of exact Python
    ints: numpy would store it as uint64, or as float64 next to small ints.
    Any entry that is not an integer raises ``ValueError``.
    """
    a = np.asarray(data)
    if a.dtype.kind == "f" and not isinstance(data, np.ndarray):
        a = np.asarray(data, dtype=object)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.dtype == np.uint64 and a.size and a.max() >= 2**63:
        return a.astype(object)
    if np.issubdtype(a.dtype, np.integer):
        return a
    a = a.astype(object, copy=False)
    if not all(isinstance(x, (int, np.integer)) for x in a.flat):
        raise ValueError("refusing non-integer input for exact arithmetic")
    return a


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
        self.w[rows] -= q[:, None] * self.w[pivot_row]


def _forward(ws: _Workspace, ncols: int) -> list:
    """Row-reduce the first ``ncols`` columns to an echelon form.

    Returns the pivot columns; the pivot of column ``pivots[i]`` is in row
    ``i``.  Pivots are positive, and rows below the pivots end up zero
    throughout those columns.  The entries above the pivots are left as
    they are.
    """
    m = ws.w.shape[0]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
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
            ws.reduce_rows(np.arange(r + 1, m), c, r)
        if ws.w[r, c] != 0:
            if ws.w[r, c] < 0:
                ws.negate(r)
            pivots.append(c)
    return pivots


def _reduce_above(ws: _Workspace, pivots: list):
    """Reduce the entries above each pivot of an echelon form into
    ``[0, pivot)``, in column order, which makes it the Hermite form."""
    for r, c in enumerate(pivots):
        ws.reduce_rows(np.arange(r), c, r)


def hnf(a) -> tuple:
    """Row Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular, ``U @ a == H``, ``H`` in row
    echelon form with positive pivots and entries above each pivot reduced
    into ``[0, pivot)``.  The workspace ``[a | I]`` runs the forward pass,
    which makes the echelon form, and then the reduction above its
    pivots.

    >>> H, U = hnf([[2, 4], [3, 7]])
    >>> H.tolist()
    [[1, 1], [0, 2]]
    """
    a = as_int_array(a)
    m, n = a.shape
    ws = _Workspace(np.concatenate([a, identity(m, a.dtype)], axis=1))
    _reduce_above(ws, _forward(ws, n))
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

    Row and column Hermite forms alternate until the matrix is diagonal:
    the row steps run on the workspace ``[A | U]``, a column step is the
    HNF of the transpose, ``Q @ A.T == H``, so ``A @ Q.T == H.T`` and ``V``
    gains the factor ``Q.T``.  A diagonal echelon form has its zeros last.
    One pass of Bezout steps then makes the divisor chain: for ``i < j``
    with ``d_i`` not dividing ``d_j`` and ``p d_i + q d_j = g``, the row
    step ``[[p, q], [-d_j/g, d_i/g]]`` and the column step
    ``[[1, -q d_j/g], [1, p d_i/g]]`` turn ``(d_i, d_j)`` into
    ``(g, lcm)``; after its pass ``d_i`` divides every later entry.

    >>> S, U, V = snf([[2, 0], [0, 3]])
    >>> [int(S[i, i]) for i in range(2)]
    [1, 6]
    """
    a = as_int_array(a)
    m, n = a.shape
    ws = _Workspace(np.concatenate([a, identity(m, a.dtype)], axis=1))
    v = identity(n)
    for _ in range(200):
        _reduce_above(ws, _forward(ws, n))
        if not _has_offdiag(ws.w[:, :n]):
            break
        h, q = hnf(ws.w[:, :n].T)
        ws = _Workspace(np.concatenate([h.T, ws.w[:, n:]], axis=1))
        v = mat_mul(v, q.T)
        if not _has_offdiag(ws.w[:, :n]):
            break
    else:  # pragma: no cover
        raise RuntimeError("Smith reduction failed to converge")

    w, v = _promote(ws.w), _promote(v)
    s, u = w[:, :n], w[:, n:]
    d = [int(x) for x in s.diagonal() if x]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                x, y = d[i] // g, d[j] // g
                p = pow(x, -1, y)
                q = (1 - p * x) // y
                u[i], u[j] = p * u[i] + q * u[j], x * u[j] - y * u[i]
                v[:, i], v[:, j] = (v[:, i] + v[:, j],
                                    p * x * v[:, j] - q * y * v[:, i])
                d[i], d[j] = g, d[i] * y
    s[range(len(d)), range(len(d))] = d
    return s, u, v


def _has_offdiag(block: np.ndarray) -> bool:
    return np.count_nonzero(block) > np.count_nonzero(block.diagonal())


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


def _coordinates(echelon, pivots, target):
    """Rational coordinates of ``target`` on the pivot rows of an echelon
    form.

    ``echelon`` is the output of :func:`_forward`, with pivot columns
    ``pivots``.  Returns ``(y, d)``, a list of Python ints and ``d >= 1``
    with ``sum(y[i] / d * echelon[i]) == target``, or ``None`` if
    ``target`` is outside the rational row span.  Back-substitution runs
    on the pivots in order, scaling ``target`` and ``y`` just enough that
    each pivot divides; the entries above the pivots need no reduction.
    """
    t = as_int_array(target).reshape(-1).tolist()
    if len(t) != echelon.shape[1]:
        raise ValueError("dimension mismatch")
    y, d = [], 1
    for i, c in enumerate(pivots):
        row = echelon[i].tolist()
        piv = row[c]
        scale = piv // gcd(piv, t[c])
        if scale > 1:
            t, y, d = [x * scale for x in t], [x * scale for x in y], d * scale
        q = t[c] // piv
        y.append(q)
        if q:
            t = [x - q * e for x, e in zip(t, row)]
    if any(t):
        return None
    return y, d


def solve_in_lattice(basis, target):
    """Integer coordinates of ``target`` in the row lattice of ``basis``.

    Returns ``x`` with ``x @ basis == target``, or ``None`` if ``target``
    is not in the integer row span.  The forward pass on ``[basis | I]``
    gives the echelon rows and their transform ``U``.
    """
    basis = as_int_array(basis)
    m, n = basis.shape
    ws = _Workspace(np.concatenate([basis, identity(m, basis.dtype)], axis=1))
    pivots = _forward(ws, n)
    coords = _coordinates(ws.w[:, :n], pivots, target)
    if coords is None or coords[1] > 1:
        return None
    y = np.array(coords[0], dtype=object).reshape(1, -1)
    return mat_mul(y, ws.w[:len(pivots), n:]).reshape(-1)


def minimal_multiplier(basis, target, bound=None):
    """Least ``n >= 1`` with ``n * target`` in the integer row span of ``basis``.

    The forward pass alone makes an echelon form of ``basis``: no
    transform and no reduction above the pivots.  Its nonzero rows are a
    basis of the span, as are those of any unimodular echelon form, so
    ``n`` is the least common denominator of the coordinates of
    ``target`` on them.  Returns ``n``; raises :class:`ValueError` if no
    multiple lies in the span, or if the answer exceeds ``bound``.

    >>> minimal_multiplier([[2, 0], [0, 3]], [1, 1])
    6
    """
    ws = _Workspace(as_int_array(basis))
    pivots = _forward(ws, ws.w.shape[1])
    coords = _coordinates(ws.w, pivots, target)
    if coords is None:
        raise ValueError("no integer multiple lies in the lattice")
    y, d = coords
    n = d // gcd(d, *y)
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
    available at any point.  Each block intersects the kernel so far,
    ``basis = kernel_saturated(basis @ B) @ basis``; a saturated kernel
    of a saturated lattice's coordinates is saturated in Z^n.
    """

    def __init__(self, n: int):
        self.n = n
        self.basis = identity(n, np.int64)

    @property
    def corank(self) -> int:
        return len(self.basis)

    def add_block(self, block) -> int:
        """Process more columns; returns the new corank."""
        block = as_int_array(block)
        if block.shape[0] != self.n:
            raise ValueError("block has wrong number of rows")
        if block.shape[1] and self.corank:
            self.basis = mat_mul(kernel_saturated(mat_mul(self.basis, block)),
                                 self.basis)
        return self.corank

    def kernel(self) -> np.ndarray:
        """Current saturated kernel basis, in HNF."""
        if self.corank == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        return hnf_basis(self.basis)
