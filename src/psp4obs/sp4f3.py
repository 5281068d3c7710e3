"""The symplectic group Sp4(F3), its quotient PSp4(F3), and their actions.

Conventions
-----------
Vectors in F3^4 are row vectors and matrices act on the right, so that the
matrix product evaluates left-to-right like permutation composition.  Both
are integer numpy arrays reduced mod 3, and points and nonzero vectors are
found by their base-3 key (the entries read as digits); permutations are
tuples.  The symplectic form is the antidiagonal one,

    <x, y> = x1 y4 + x2 y3 - x3 y2 - x4 y1,

and ``M`` is symplectic when ``M J M^T = J`` for the Gram matrix ``J`` of
the form.  The group is generated by symplectic transvections

    t_v : x  |->  x + <x, v> v,

one for each projective vector ``v``; one joins the generators when its
point permutation is not yet in their group, until that group is PSp4(3).
Their group maps onto PSp4(3) = Sp4(3)/{+-1}, so it has index at most 2
in the perfect group Sp4(3): it is Sp4(3).

The action on the projective points (degree 40, faithful for PSp4(3)) is
the canonical copy of the simple group used everywhere else.  Three more
actions of the same generators build their chains on first use:

* degree 80, on the nonzero vectors (faithful for Sp4(3));
* degree 40, on the 40 totally isotropic lines, and degree 45, on the
  unordered pairs ``{W, W^perp}`` of nondegenerate 2-spaces.

The commuting graph on projective points (orthogonal distinct points
adjacent) is strongly regular with parameters (40, 12, 2, 4) and
eigenvalues 12, 2, -4 of multiplicities 1, 24, 15.  Projecting a
permutation matrix onto the 24-dimensional eigenspace gives exact values
of the irreducible degree-24 character; the projector has entries in
(1/60) Z, and all traces come out integral, which is checked.

Everything else is read straight off a point permutation, with no words in
the generators: its images of lines and perp pairs are the images of their
point sets; its symplectic lift, unique up to sign, has rows on the images
of the basis points, scaled to sum to the image of (1, 1, 1, 1); and a
subgroup acts absolutely irreducibly on F3^4 exactly when the lifts of its
generators span the full matrix algebra M_4(F3) (Burnside's theorem).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .permgroups import PermGroup

SP4_ORDER = 51840
PSP4_ORDER = 25920


def _require(ok, what):
    """Check an invariant; unlike an assert, it survives ``python -O``."""
    if not ok:
        raise RuntimeError(what)


# Gram matrix of the form <x,y> = x1 y4 + x2 y3 - x3 y2 - x4 y1
J_FORM = np.array([[0, 0, 0, 1],
                   [0, 0, 1, 0],
                   [0, 2, 0, 0],
                   [2, 0, 0, 0]])


def is_symplectic(m) -> bool:
    return np.array_equal(m @ J_FORM @ m.T % 3, J_FORM)


def transvection(v):
    """Matrix of t_v : x |-> x + <x, v> v (row-action convention): row i
    is e_i + <e_i, v> v."""
    return (np.identity(4, dtype=int) + np.outer(J_FORM @ v, v)) % 3


# ---------------------------------------------------------------------------
# vectors, points and subspaces

# lexicographic order, so that nonzero vector i has base-3 key i + 1
NONZERO_VECS = np.array(list(itertools.product(range(3), repeat=4)))[1:]
_BASE3 = 3 ** np.arange(3, -1, -1)

# the projective representatives, whose first nonzero entry is 1, ascending
_LEADS = NONZERO_VECS[np.arange(80), (NONZERO_VECS != 0).argmax(axis=1)]
POINTS = NONZERO_VECS[_LEADS == 1]
_require(len(POINTS) == 40, "F3^4 must have 40 projective points")
# _POINT_OF[key of v] is the index of the point <v>, and -1 for v = 0
_POINT_OF = np.full(81, -1)
_POINT_OF[POINTS @ _BASE3] = _POINT_OF[(2 * POINTS % 3) @ _BASE3] = \
    np.arange(40)


def point_index(vecs):
    """The index of the point of each row of ``vecs``; -1 for a zero row."""
    return _POINT_OF[np.asarray(vecs) % 3 @ _BASE3]


# the basis points and (1, 1, 1, 1), whose images fix a matrix up to a scalar
_FRAME = point_index(np.vstack([np.identity(4, dtype=int), np.ones(4, int)]))
# the row scalars up to a common sign: row 0 keeps 1, so a lift's first
# nonzero entry is the 1 that leads the point of row 0
_SCALINGS = np.array([(1, *s) for s in itertools.product((1, 2), repeat=3)])


def _enumerate_planes():
    """The 130 planes, each spanned once: two distinct points v, w span the
    plane of the points <v>, <w>, <v + w> and <v - w>, and a pair on a
    plane found already is skipped."""
    combos = np.array([[1, 0], [0, 1], [1, 1], [1, 2]])
    planes, covered = [], set()
    for pair in itertools.combinations(range(40), 2):
        if pair not in covered:
            span = point_index(combos @ POINTS[list(pair)])
            key = tuple(sorted(span.tolist()))
            planes.append(key)
            covered.update(itertools.combinations(key, 2))
    return sorted(planes)


PLANES = _enumerate_planes()
_require(len(PLANES) == 130, "F3^4 must have 130 planes")


# ORTHOGONAL[i, j]: <x, y> = 0 for points x, y (every point is isotropic)
ORTHOGONAL = POINTS @ J_FORM @ POINTS.T % 3 == 0


# each plane's perp, the points orthogonal to all of its points.  The form
# has even rank on a plane, so a plane is its own perp (an isotropic line)
# or nondegenerate, with a nondegenerate perp
_PERPS = {p: tuple(np.flatnonzero(ORTHOGONAL[list(p)].all(axis=0)).tolist())
          for p in PLANES}
ISOTROPIC_LINES = [p for p in PLANES if _PERPS[p] == p]
_require(len(ISOTROPIC_LINES) == 40, "there must be 40 isotropic lines")
LINE_INDEX = {p: i for i, p in enumerate(ISOTROPIC_LINES)}
PERP_PAIRS = sorted({tuple(sorted((p, q))) for p, q in _PERPS.items()
                     if p != q})
_require(len(PERP_PAIRS) == 45, "there must be 45 perp pairs")
PAIR_INDEX = {p: i for i, p in enumerate(PERP_PAIRS)}


# ---------------------------------------------------------------------------
# matrices to permutations


def vector_perm(m):
    return tuple((NONZERO_VECS @ m % 3 @ _BASE3 - 1).tolist())


def point_perm(m):
    return tuple(point_index(POINTS @ m).tolist())


def _image_plane(plane, pperm):
    return tuple(sorted(pperm[i] for i in plane))


def line_perm_from_point_perm(pperm):
    return tuple(LINE_INDEX[_image_plane(p, pperm)] for p in ISOTROPIC_LINES)


def pair_perm_from_point_perm(pperm):
    out = []
    for p, q in PERP_PAIRS:
        key = tuple(sorted((_image_plane(p, pperm), _image_plane(q, pperm))))
        out.append(PAIR_INDEX[key])
    return tuple(out)


# ---------------------------------------------------------------------------
# the model


@dataclass
class SymplecticModel:
    """Sp4(F3) with its standard actions, built by :func:`build_sp4`.  Only
    ``psp`` has a chain; the other actions, of the same transvections,
    build theirs on first use."""

    psp: PermGroup            # canonical PSp4(3): action on projective points
    matrices: list            # the transvections behind psp.generators
    sp80: PermGroup           # on the 80 nonzero vectors
    line_action: PermGroup    # on the 40 isotropic lines
    pair_action: PermGroup    # on the 45 perp pairs


def lift_to_sp(perm):
    """A symplectic matrix mapping to the given point permutation.

    Row i of the matrix is the image of the basis vector e_i, so it lies
    on the image of the point of e_i.  The basis points and (1, 1, 1, 1)
    form a projective frame: exactly one choice of row scalars, up to a
    common sign, makes the rows sum to a vector on the image of
    (1, 1, 1, 1).  The lift is unique up to sign; the representative whose
    first nonzero entry (row-major) equals 1 is returned, so the map is
    deterministic.  A permutation that no symplectic matrix induces (an
    element of PGSp4(3) outside PSp4(3), a permutation that moves the
    frame to dependent points, one that is not projective at all) raises
    ``ValueError``.
    """
    perm = tuple(perm)
    frame = np.array(perm)[_FRAME]
    # candidate k has row i equal to image i times _SCALINGS[k, i]
    candidates = _SCALINGS[:, :, None] * POINTS[frame[:4]] % 3
    hits = np.flatnonzero(point_index(candidates.sum(1)) == frame[4])
    m = candidates[hits[0]] if hits.size else None
    if m is None or not is_symplectic(m) or point_perm(m) != perm:
        raise ValueError("permutation is not induced by Sp4(3)")
    return m


def build_sp4() -> SymplecticModel:
    """Build the model from transvections chosen in the point action."""
    matrices = []
    psp = PermGroup([], 40)
    for v in POINTS:
        m = transvection(v)
        _require(is_symplectic(m), "transvection is not symplectic")
        p = point_perm(m)
        if p in psp:
            continue
        matrices.append(m)
        psp = PermGroup(psp.generators + [p], 40)
        if psp.order == PSP4_ORDER:
            return SymplecticModel(
                psp, matrices,
                PermGroup([vector_perm(m) for m in matrices], 80),
                PermGroup([line_perm_from_point_perm(p)
                           for p in psp.generators], 40),
                PermGroup([pair_perm_from_point_perm(p)
                           for p in psp.generators], 45))
    raise RuntimeError(  # pragma: no cover
        "transvections failed to generate PSp4(3)")


@cache
def standard_model() -> SymplecticModel:
    """The process-wide shared model (build_sp4 is deterministic)."""
    return build_sp4()


# ---------------------------------------------------------------------------
# the commuting graph and the degree-24 character


def srg_adjacency() -> np.ndarray:
    """Adjacency matrix of the orthogonality graph on projective points.

    Strongly regular with parameters (40, 12, 2, 4).
    """
    a = ORTHOGONAL.astype(np.int64) - np.eye(40, dtype=np.int64)
    _require((a.sum(axis=1) == 12).all(), "graph is not 12-regular")
    return a


@cache
def _projector_numerator():
    """60 * (projector onto the eigenvalue-2 eigenspace), an integer matrix.

    The spectrum of the (40,12,2,4) graph is 12, 2, -4 with multiplicities
    1, 24, 15, so (A - 12)(A + 4) / ((2-12)(2+4)) projects onto the
    24-dimensional eigenspace.
    """
    a = srg_adjacency()
    i40 = np.eye(40, dtype=np.int64)
    b = (a - 12 * i40) @ (a + 4 * i40)
    _require(np.trace(b) == 24 * (2 - 12) * (2 + 4),
             "eigenvalue 2 must have multiplicity 24")
    return b


def chi24(perm) -> int:
    """Value of the degree-24 irreducible character at a point permutation."""
    b = _projector_numerator()
    perm = np.asarray(perm, dtype=np.int64)
    t = int(b[perm, np.arange(40)].sum())
    num = -t  # divide by (2-12)(2+4) = -60
    _require(num % 60 == 0, "projector trace must be integral")
    return num // 60


def fixed_points(perm) -> int:
    return sum(1 for i, x in enumerate(perm) if i == x)


def picard_character_at(perm) -> int:
    """Value of pi_40 + pi_45 - chi_24 at a point permutation.

    This is the character of the rank-61 module cut out of the direct sum
    of the two natural permutation modules; any candidate for that module
    must match it classwise.
    """
    return (fixed_points(perm) + fixed_points(pair_perm_from_point_perm(perm))
            - chi24(perm))


# ---------------------------------------------------------------------------
# absolute irreducibility of subgroups of PSp4(3) on F3^4


def _algebra_dimension(mats) -> int:
    """F3-dimension of the matrix algebra generated by ``mats``.

    Spinning by levels: a round multiplies every matrix that the round
    before added by every generator in one product, and keeps a basis of
    the products that are independent of the basis so far.  Every added
    matrix is thus multiplied by every generator, so the span contains
    the identity and is closed under right multiplication by the
    generators: it is the algebra.  Each added matrix is one earlier
    matrix times one generator.

    The basis is a reduced echelon form of the flattened matrices, stored
    by pivot: row c has a 1 at c and 0 at the other pivots, or is zero
    when c is no pivot, so ``cand - cand @ basis`` reduces a batch.
    Entries stay in 0..2, so a product of 16 terms is below 64 in int64.
    """
    gens = np.array(mats, dtype=np.int64).reshape(-1, 4, 4)
    basis = np.zeros((16, 16), dtype=np.int64)
    dim = 0
    cand = np.identity(4, dtype=np.int64).reshape(1, 16)
    while True:
        cand = (cand - cand @ basis) % 3
        added = []
        for _ in range(16):  # each step clears one more column
            cols = cand.any(axis=0)
            c = cols.argmax()
            if not cols[c]:
                break
            r = cand[:, c].argmax()
            v = cand[r] * cand[r, c] % 3  # x * x = 1 for x = 1, 2
            # clears column c everywhere; row r itself becomes zero
            cand = (cand - cand[:, c, None] * v) % 3
            basis = (basis - basis[:, c, None] * v) % 3
            basis[c] = v
            added.append(v)
        dim += len(added)
        if not added or dim >= 16:
            return dim
        cand = (np.reshape(added, (-1, 1, 4, 4)) @ gens % 3).reshape(-1, 16)


def is_absolutely_irreducible(generators) -> bool:
    """Does the subgroup of PSp4(3) with these generators act absolutely
    irreducibly on F3^4?

    The preimage in Sp4(3) is used; it spans the same F3-algebra as the
    lifts of the generators, because -1 is a scalar.  By Burnside's theorem
    on matrix algebras, the criterion behind the MeatAxe (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005), a group of
    matrices over a field acts absolutely irreducibly on K^4 if and only
    if its matrices span all of M_4(K), of dimension 16.
    """
    return _algebra_dimension([lift_to_sp(g) for g in generators]) == 16
