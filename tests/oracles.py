"""Reference implementations that only the tests use.

``coset_action``, ``random_element`` and ``class_inner`` serve the tests
that need them; the rest are the former production paths, kept as
oracles for the faster ones:

* ``brute_conjugacy_classes`` closes every element under ``pconj`` by
  every element, where :meth:`psp4obs.permgroups.PermGroup.conjugacy_classes`
  labels the orbits of the generators on base-image keys;
* ``scan_perm_characters`` counts fixed cosets by conjugating each class
  representative over the whole element table, where
  :func:`psp4obs.burnside.perm_characters` reads them off class fusion;
* ``chain_*`` run the derived and lower central series with a
  Schreier-Sims chain rebuilt for every accepted generator of every
  term, where :class:`psp4obs.permgroups.PermGroup` compares the sizes of
  element sets and counts the elements of p-power order;
* ``scan_conjugators`` sieves every row of an element table, where
  :meth:`psp4obs.permgroups.ConjugacyAnchor.conjugators` starts from the
  centraliser of one generator's class representative;
* ``scan_containers`` builds the full containment order with a
  conjugacy scan for every pair of classes, and ``scan_maximal`` scans
  each class only against the maximal classes found before it, after the
  class-count prescreen ``may_contain`` of one pair, where
  :func:`psp4obs.subgroups.subgroup_classes` reads the maximal classes off
  the double cosets of the ambient lattice and prescreens every container
  of a class at once;
* ``closure_own_lattice`` runs a layer closure inside a class
  representative, maps each of its classes to a lattice id by a
  conjugacy scan and counts their permutation characters with
  ``scan_perm_characters``, where
  :func:`psp4obs.subgroups.subgroup_classes` reads each own lattice off
  the double cosets of the ambient lattice;
* ``quotient_order`` multiplies a coset representative z by itself until
  z^k lies in H, one membership test per power, where
  ``subgroups._coset_powers`` raises all representatives at once;
* ``word_evaluate`` multiplies out a word in the generators, which
  :meth:`psp4obs.permgroups.PermGroup.express` and presentations return;
* ``express_matrices`` and ``inverse_transposes`` give a module's matrix
  of an element as the product over its word in the generators, inverse
  letters and the dual's generators inverted by a Hermite normal form,
  where :meth:`psp4obs.zmodules.GIntModule.matrix_of` multiplies the
  matrices of the element's transversal factors;
* ``subspace_irreducible`` searches invariant lines, planes and
  hyperplanes and measures the commutant, where
  :func:`psp4obs.sp4f3.is_absolutely_irreducible` measures the span of the
  matrices (Burnside's theorem), spun a level at a time;
* ``lift_to_sp`` tries the 16 scalings of a frame one at a time, and it,
  ``preimage`` and the subspace searches multiply F3 matrices as tuples
  of tuples, where :mod:`psp4obs.sp4f3` multiplies numpy arrays;
* ``brute_subgroups``, ``brute_perm_characters`` and ``snf_order`` find a
  Burnside-cokernel order from every subgroup of a small group and
  sympy's Smith normal form, where :mod:`psp4obs.burnside` uses the
  lattice's data and :mod:`psp4obs.intlinalg`;
* ``minimal_multiplier_by_smith`` reads the least multiple of a vector in
  a lattice off the Smith form and its column transform, where
  :func:`psp4obs.intlinalg.minimal_multiplier` back-substitutes on the
  pivots of an echelon form from the forward pass alone;
* ``relator_matrix`` and ``presentation_abelian_invariants`` read G/G'
  off the Smith form of the abelianised relators of the chain's
  presentation, where :func:`psp4obs.permgroups.abelian_invariants`
  counts the elements whose p^k-th powers lie in G';
* ``h1_bruteforce`` solves the bar-resolution cocycle equations, where
  :func:`psp4obs.cohomology.h1` reads H^1 off the generator matrices;
* ``load_pairing`` reads the pairing file that ``scripts/build_module.py``
  writes, and ``direct_sum`` makes the block-diagonal modules that the
  cohomology tests need (the builder makes its rank-85 module as one
  permutation module);
* ``det`` is a fraction-free (Bareiss) determinant, which the tests use
  to check that transforms are unimodular.
"""

from collections import Counter, deque
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import numpy as np

from psp4obs import intlinalg, readers, sp4f3, subgroups, zmodules
from psp4obs import permgroups as pg
from psp4obs.intlinalg import AbelianInvariants, TRIVIAL_GROUP
from psp4obs.permgroups import PermGroup


def coset_action(group: PermGroup, sub: PermGroup):
    """Action on right cosets of ``sub``; returns (PermGroup, labels, reps).

    ``labels`` maps each element-table index of G to a coset number;
    coset 0 is the subgroup itself, numbering follows a breadth-first
    sweep by the generators in order.
    """
    et = group.element_table()
    index = group.order // sub.order
    labels = np.full(len(et), -1, dtype=np.int64)
    start = et.index_of(sub.element_table().table)
    labels[start] = 0
    reps = [group.identity]
    frontier = [0]
    coset_rows = {0: start}
    ncoset = 1
    gen_list = [g for g in group.generators if not pg.is_identity(g)]
    while frontier:
        new = []
        for c in frontier:
            rows = et.table[coset_rows[c]]
            for g in gen_list:
                shifted = np.asarray(g, dtype=et.table.dtype)[rows]
                idx = et.index_of(shifted)
                if labels[idx[0]] < 0:
                    labels[idx] = ncoset
                    coset_rows[ncoset] = idx
                    reps.append(pg.pmul(reps[c], g))
                    new.append(ncoset)
                    ncoset += 1
        frontier = new
    if ncoset != index:
        raise RuntimeError("coset sweep did not reach every coset")
    action_gens = []
    for g in gen_list:
        images = []
        for c in range(ncoset):
            i = coset_rows[c][0]
            shifted = np.asarray(g, dtype=et.table.dtype)[
                et.table[i]][None, :]
            images.append(int(labels[et.index_of(shifted)[0]]))
        action_gens.append(tuple(images))
    return PermGroup(action_gens, index), labels, reps


def random_element(group: PermGroup, rng):
    """A uniformly random element of ``group``: a product of random picks
    from the transversals of its chain."""
    out = pg.pident(group.degree)
    for level in reversed(group.levels):
        pts = sorted(level.orbit)
        out = pg.pmul(out, level.orbit[pts[rng.randrange(len(pts))]])
    return out


def class_inner(f, g, sizes, group_order) -> Fraction:
    """<f, g> = (1/|G|) sum |class| f g, for real class functions given by
    their values on classes of the given sizes."""
    return Fraction(sum(s * a * b for s, a, b in zip(sizes, f, g)),
                    group_order)


def brute_conjugacy_classes(group: PermGroup, conjugators=None):
    """``conjugacy_classes()`` and the class index of every element-table
    row, by brute force.

    The elements are partitioned by closing each under ``pconj`` by every
    element (or by ``conjugators``, which must generate the group); each
    class is represented by its least table index, and the classes take
    the canonical order (element order, class size, representative).
    """
    et = group.element_table()
    elems = [et.perm(i) for i in range(len(et))]
    index = {x: i for i, x in enumerate(elems)}
    conjugators = elems if conjugators is None else list(conjugators)
    label = [-1] * len(elems)
    found = []
    for i in range(len(elems)):
        if label[i] >= 0:
            continue
        label[i] = len(found)
        members, frontier = [i], [i]
        while frontier:
            new = []
            for k in frontier:
                for g in conjugators:
                    j = index[pg.pconj(elems[k], g)]
                    if label[j] < 0:
                        label[j] = len(found)
                        members.append(j)
                        new.append(j)
            frontier = new
        found.append((elems[min(members)], len(members)))
    order = sorted(range(len(found)), key=lambda c: (
        pg.porder(found[c][0]), found[c][1], found[c][0]))
    rank = {c: pos for pos, c in enumerate(order)}
    return [found[c] for c in order], [rank[c] for c in label]


def scan_perm_characters(group: PermGroup, class_rows) -> np.ndarray:
    """Fixed cosets |{g : g^-1 c g in K}| / |K| by conjugating each class
    representative c by every element and counting the conjugates, as row
    bytes, that lie in each K."""
    elems = group.element_table().table
    inverses = np.argsort(elems, axis=1)
    out = np.zeros((len(class_rows), len(group.conjugacy_classes())),
                   dtype=np.int64)
    for j, (rep, _size) in enumerate(group.conjugacy_classes()):
        # g^-1 c g sends i to g[c[g^-1[i]]]
        conj = np.take_along_axis(
            elems, np.asarray(rep)[inverses], axis=1)
        counts = Counter(row.tobytes() for row in conj)
        for i, rows in enumerate(class_rows):
            rows = np.asarray(rows, dtype=elems.dtype)
            hits = sum(counts[row.tobytes()] for row in rows)
            assert hits % len(rows) == 0
            out[i, j] = hits // len(rows)
    return out


def _nontrivial(gens):
    return [g for g in gens if not pg.is_identity(g)]


def chain_normal_closure(ambient, seeds) -> PermGroup:
    """Normal closure with a chain rebuilt for every accepted generator."""
    gens = []
    cur = PermGroup([], ambient.degree)
    queue = deque(tuple(s) for s in seeds if not pg.is_identity(s))
    conjugators = _nontrivial(ambient.generators)
    while queue:
        x = queue.popleft()
        if x in cur:
            continue
        gens.append(x)
        cur = PermGroup(gens, ambient.degree)
        for g in conjugators:
            queue.append(pg.pconj(x, g))
            queue.append(pg.pconj(x, pg.pinv(g)))
    return cur


def chain_derived_subgroup(group) -> PermGroup:
    gens = _nontrivial(group.generators)
    return chain_normal_closure(group, [pg.pcommutator(a, b)
                                        for a in gens for b in gens])


def chain_solvable_residual(group) -> PermGroup:
    cur = group
    while True:
        nxt = chain_derived_subgroup(cur)
        if nxt.order == cur.order:
            return nxt
        cur = nxt


def chain_derived_length(group):
    cur, length = group, 0
    while cur.order > 1:
        nxt = chain_derived_subgroup(cur)
        if nxt.order == cur.order:
            return None
        cur, length = nxt, length + 1
    return length


def chain_is_nilpotent(group) -> bool:
    gens = _nontrivial(group.generators)
    cur = group
    while cur.order > 1:
        nxt = chain_normal_closure(group, [
            pg.pcommutator(g, h) for g in gens
            for h in _nontrivial(cur.generators)])
        if nxt.order == cur.order:
            return False
        cur = nxt
    return True


def scan_containers(raws, ambient: PermGroup) -> dict:
    """For each raw class, the raw indices of the strictly larger classes
    that contain a conjugate of it, with a conjugacy scan for every
    pair."""
    order_desc = sorted(range(len(raws)), key=lambda i: -raws[i].order)
    containers = {i: set() for i in range(len(raws))}
    for pos, i in enumerate(order_desc):
        bigger = [j for j in order_desc[:pos]
                  if raws[j].order > raws[i].order
                  and raws[j].order % raws[i].order == 0]
        bigger.sort(key=lambda j: raws[j].order)
        for j in bigger:
            if j in containers[i]:
                continue
            if ambient.conjugate_into(raws[i].group,
                                      raws[j].group) is not None:
                containers[i].add(j)
                containers[i] |= containers[j]
    return containers


def scan_conjugators(et: pg.ElementTable, gens, target: pg.ElementTable):
    """Indices of the rows g of ``et`` with g^-1 h g in ``target`` for
    every h, sieved from all rows; each h must lie in the group of ``et``
    (``ValueError`` otherwise)."""
    gens = np.asarray(gens, dtype=et.table.dtype)
    et.index_of(gens)
    return et.sieve(np.arange(len(et)), gens, et.held(target))


def may_contain(big, small) -> bool:
    """Can ``big`` hold a conjugate of ``small``?  Only where its order is
    a multiple and it has as many elements in every class."""
    counts = dict(big.fusion)
    return (big.order % small.order == 0
            and all(n <= counts.get(c, 0) for c, n in small.fusion))


def scan_maximal(classes, group: PermGroup) -> list:
    """Indices of the maximal proper classes among ``classes``, the
    subgroup classes of ``group``, each with ``order``, ``fusion`` (into
    the classes of ``group``), ``gens`` and element ``rows``.

    Every proper subgroup lies in a maximal one, which is larger.  So,
    walking the classes by descending order, a proper class is maximal
    unless a maximal class found before it contains a conjugate of it.
    A conjugate of A inside B has as many elements in each class of
    ``group`` as A, so the scan runs only where B's class counts dominate
    A's, over the whole element table of ``group``.
    """
    et = group.element_table()
    tables = {}

    def inside(a, j):
        b = classes[j]
        if not (b.order > a.order and may_contain(b, a)):
            return False
        if j not in tables:
            tables[j] = pg.ElementTable(b.rows, group.degree, et.base)
        return scan_conjugators(et, a.gens, tables[j]).size > 0

    maximal = []
    for i in sorted(range(len(classes)), key=lambda i: -classes[i].order):
        if classes[i].order < group.order and not any(
                inside(classes[i], j) for j in maximal):
            maximal.append(i)
    return maximal


def lattice_ids(lattice, raws) -> list:
    """For each raw class, the id of the class of ``lattice`` it is
    conjugate to in the ambient group."""
    ids = []
    for raw in raws:
        (cid,) = [c.class_id for c in lattice.classes if c.order == raw.order
                  and lattice.ambient.is_conjugate_subgroup(
                      lattice.rep(c.class_id), raw.table)]
        ids.append(cid)
    return ids


def closure_own_lattice(lattice, class_id):
    """(maximal, own_orders, own_gclass, perm_chars) of one class of
    ``lattice``, as ``subgroup_classes`` computed them with a second
    search: the classes of a layer closure inside the representative,
    each mapped to the lattice class it is conjugate to in the ambient
    group, sorted by (order, id) with ties in discovery order, and their
    permutation characters by conjugating every class representative."""
    rep = lattice.rep(class_id)
    raws = subgroups._layer_closure(rep).raws
    ids = lattice_ids(lattice, raws)
    maximal = tuple(sorted({ids[k] for k in scan_maximal(raws, rep)}))
    order = sorted(range(len(raws)), key=lambda k: (raws[k].order, ids[k]))
    return (maximal, tuple(raws[k].order for k in order),
            tuple(ids[k] for k in order),
            scan_perm_characters(rep, [raws[k].rows for k in order]))


def quotient_order(z, sub_rows) -> int:
    """Order of the coset zH in N/H (H normal in N, its element rows
    ``sub_rows``)."""
    members = {tuple(r) for r in np.asarray(sub_rows).tolist()}
    k = 1
    cur = tuple(z)
    while cur not in members:
        cur = pg.pmul(cur, z)
        k += 1
    return k


def word_evaluate(word, gens):
    """Evaluate a word (pairs ``(index, +-1)``) in the given permutations."""
    out = pg.pident(len(gens[0]) if gens else 0)
    for i, e in word:
        out = pg.pmul(out, gens[i] if e > 0 else pg.pinv(gens[i]))
    return out


def express_matrices(group: PermGroup, mats):
    """The function p -> the product of ``mats[i]`` or its inverse over
    the letters ``(i, +-1)`` of ``group.express(p)``."""
    inverses = [intlinalg.unimodular_inverse(m) for m in mats]

    def matrix(p):
        word = group.express(p)
        if word is None:
            raise ValueError(f"{p} is not an element of the group")
        out = np.eye(len(mats[0]), dtype=np.int64)
        for i, e in word:
            out = intlinalg.mat_mul(out, mats[i] if e == 1 else inverses[i])
        return out
    return matrix


def inverse_transposes(mats) -> list:
    """The generators of the dual module, M(g)^-T, by Hermite forms."""
    return [np.ascontiguousarray(intlinalg.unimodular_inverse(m).T)
            for m in mats]


# -- F3^4 on tuples of tuples, the long way round --------------------------


MAT_ID = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
MINUS_ONE = tuple(tuple(2 * x for x in row) for row in MAT_ID)
J_FORM = ((0, 0, 0, 1), (0, 0, 1, 0), (0, 2, 0, 0), (2, 0, 0, 0))


def as_tuples(m):
    """A 4 x 4 matrix, array or nested sequence, as hashable tuples."""
    return tuple(tuple(int(x) % 3 for x in row) for row in m)


def mat_mul3(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4)) % 3
                       for j in range(4)) for i in range(4))


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def vec_mul3(v, m):
    return tuple(sum(v[i] * m[i][j] for i in range(4)) % 3 for j in range(4))


def normalize_point(v):
    """The projective representative whose first nonzero entry is 1."""
    lead = next(x for x in v if x)
    return tuple(lead * x % 3 for x in v)  # 1 and 2 are self-inverse


def tuple_points():
    """The 40 points of :data:`psp4obs.sp4f3.POINTS` as tuples, with each
    point's index."""
    points = [tuple(p) for p in sp4f3.POINTS.tolist()]
    return points, {v: i for i, v in enumerate(points)}


def lift_to_sp(perm):
    """:func:`psp4obs.sp4f3.lift_to_sp` on tuples: the 16
    scalings of the frame's images tried one at a time, the first whose
    rows sum onto the image of (1, 1, 1, 1) kept, then made symplectic,
    checked against ``perm`` and signed so that its first nonzero entry is
    1.  ``ValueError`` where no scaling works or the checks fail."""
    points, index = tuple_points()
    perm = tuple(perm)
    *images, target = (points[perm[index[v]]]
                       for v in (*MAT_ID, (1, 1, 1, 1)))
    for scales in product((1, 2), repeat=4):
        m = tuple(tuple(c * x % 3 for x in v) for c, v in zip(scales, images))
        total = tuple(sum(col) % 3 for col in zip(*m))
        if any(total) and normalize_point(total) == target:
            break
    else:
        raise ValueError("no scaling of the frame fits")
    if (mat_mul3(mat_mul3(m, J_FORM), mat_transpose(m)) != J_FORM
            or tuple(index[normalize_point(vec_mul3(v, m))]
                     for v in points) != perm):
        raise ValueError("permutation is not induced by Sp4(3)")
    lead = next(x for row in m for x in row if x)
    return tuple(tuple(lead * x % 3 for x in row) for row in m)


def preimage(lifts):
    """Every element of the group that -1 and ``lifts`` generate in
    Sp4(3), as tuples."""
    return closure([MINUS_ONE] + [as_tuples(m) for m in lifts], mat_mul3,
                   MAT_ID)


def invariant_line_exists(mats):
    points, _ = tuple_points()
    return any(all(normalize_point(vec_mul3(v, m)) == v for m in mats)
               for v in points)


def invariant_plane_exists(mats):
    points, index = tuple_points()
    for plane in sp4f3.PLANES:
        base = [points[plane[0]], points[plane[1]]]
        if all(index[normalize_point(vec_mul3(v, m))] in plane
               for m in mats for v in base):
            return True
    return False


def rank_mod3(a) -> int:
    a = np.array(a, dtype=np.int64) % 3
    m, n = a.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * a[r, c]) % 3  # 1 and 2 are their own inverses
        for i in range(m):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % 3
        r += 1
        if r == m:
            break
    return r


def endomorphism_dimension(mats) -> int:
    """F3-dimension of the commutant {X : X M = M X for all M}."""
    rows = []
    for m in mats:
        marr = np.array(m, dtype=np.int64)
        for i in range(4):
            for j in range(4):
                # (X M - M X)[i, j] as a linear form in the entries of X
                row = np.zeros((4, 4), dtype=np.int64)
                row[i, :] += marr[:, j]
                row[:, j] -= marr[i, :]
                rows.append(row.reshape(16))
    return 16 - rank_mod3(rows)


def subspace_irreducible(mats) -> bool:
    """Irreducible over F3 (no invariant line, plane or hyperplane) with a
    one-dimensional commutant, which together mean absolutely irreducible.
    """
    mats = [as_tuples(m) for m in mats]
    if invariant_line_exists(mats) or invariant_plane_exists(mats):
        return False
    # the hyperplane {x : x c = 0} is invariant under M exactly when the
    # line of c^T is invariant under M^T
    if invariant_line_exists([mat_transpose(m) for m in mats]):
        return False
    return endomorphism_dimension(mats) == 1


def closure(gens, mul, identity):
    """Every product of ``gens``, breadth first."""
    out = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in out:
                    out.add(b)
                    nxt.append(b)
        frontier = nxt
    return out


# -- Burnside-cokernel orders by brute force --------------------------------


def brute_subgroups(elements):
    """Every subgroup of the finite permutation group ``elements``.

    Each subgroup is reached by adding one element at a time to the
    trivial group, so none is missed.  The elements of one coset of a
    subgroup H add the same subgroup, so one element per coset is tried,
    and each subgroup keeps the elements that made it as its generators.
    """
    identity = pg.pident(len(next(iter(elements))))
    found = {frozenset([identity]): []}  # subgroup -> its generators
    frontier = list(found)
    while frontier:
        nxt = []
        for sub in frontier:
            tried = set(sub)
            for x in elements:
                if x in tried:
                    continue
                tried.update(pg.pmul(h, x) for h in sub)
                gens = found[sub] + [x]
                big = frozenset(closure(gens, pg.pmul, identity))
                if big not in found:
                    found[big] = gens
                    nxt.append(big)
        frontier = nxt
    return set(found)


def brute_perm_characters(elements, subgroup_reps, class_reps):
    """Row K, column c: |{x : x c x^-1 in K}| / |K|, the fixed cosets."""
    rows = []
    for sub in subgroup_reps:
        row = []
        for c in class_reps:
            hits = sum(1 for x in elements
                       if pg.pconj(c, pg.pinv(x)) in sub)
            if hits % len(sub):
                raise RuntimeError("fixed-coset count is not an integer")
            row.append(hits // len(sub))
        rows.append(row)
    return rows


def snf_order(rows, chi) -> int:
    """Order of ``chi`` modulo the integer span of ``rows``.

    With L the row lattice and L' = L + Z chi of the same rank, the order
    is [L' : L], the ratio of the products of their Smith invariants.
    """
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    def invariants(m):
        d = smith_normal_form(Matrix(m), domain=ZZ)
        return [abs(d[i, i]) for i in range(min(d.shape)) if d[i, i]]

    lat, ext = invariants(rows), invariants(list(rows) + [list(chi)])
    if len(lat) != len(ext):
        raise ValueError("chi is outside the rational span of the rows")
    num, den = prod(lat), prod(ext)
    if num % den:
        raise RuntimeError("index of lattices is not an integer")
    return num // den


def minimal_multiplier_by_smith(basis, target, bound=None) -> int:
    """Least ``n >= 1`` with ``n * target`` in the row span of ``basis``.

    With ``U B V = S`` the coordinates of ``target`` are ``c = target V``
    in the basis of the rows of ``V^-1``, on which the lattice is ``d_j``
    times the j-th row; so ``n`` is the lcm of ``d_j / gcd(d_j, c_j)``.
    """
    basis = intlinalg.as_int_array(basis)
    t = intlinalg.as_int_array(target).reshape(-1)
    s, _, v = intlinalg.snf(basis)
    c = intlinalg.mat_mul(t.reshape(1, -1), v).reshape(-1)
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


# -- abelianisation from a presentation ------------------------------------


def relator_matrix(pres) -> np.ndarray:
    """Exponent-sum matrix of the relators (rows) in the generators."""
    rows = []
    for w in pres.relators:
        row = [0] * pres.ngens
        for i, e in w:
            row[i] += e
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(rows), pres.ngens)


def presentation_abelian_invariants(group: PermGroup) -> AbelianInvariants:
    """Invariant factors of G/[G,G] via the abelianised presentation."""
    if group.order == 1:
        return TRIVIAL_GROUP
    pres = group.presentation()
    inv = intlinalg.quotient_invariants(pres.ngens, relator_matrix(pres))
    if inv.free_rank:
        raise RuntimeError("abelianisation of a finite group must be finite")
    return inv


# -- H^1 from the bar resolution --------------------------------------------

BRUTE_FORCE_MAX_ORDER = 16
BRUTE_FORCE_MAX_CELLS = 200_000


def quotient_mod_coboundaries(z1, cob_rows) -> AbelianInvariants:
    if len(z1) == 0:
        return TRIVIAL_GROUP
    coords = []
    for row in cob_rows:
        c = intlinalg.solve_in_lattice(z1, row)
        if c is None:
            raise RuntimeError("coboundary outside the cocycle lattice")
        coords.append(c)
    inv = intlinalg.quotient_invariants(len(z1), np.array(coords,
                                                          dtype=object))
    if inv.free_rank:
        raise RuntimeError(f"H^1 of a finite group has free rank "
                           f"{inv.free_rank}")
    return inv


def h1_bruteforce(module: zmodules.GIntModule) -> AbelianInvariants:
    """H^1 from the bar resolution; only for very small groups.

    Unknowns are c(h) for every nontrivial h, and every pair (g, h) gives
    the equation c(gh) = c(g) M(h) + c(h).
    """
    group = module.group
    n = module.rank
    m = group.order
    if m > BRUTE_FORCE_MAX_ORDER or n * m * m > BRUTE_FORCE_MAX_CELLS:
        raise ValueError("group or module too large for the brute force")
    if m == 1 or n == 0:
        return TRIVIAL_GROUP
    elems = [tuple(r) for r in group.element_table().table]
    nontriv = elems[1:]
    pos = {h: i for i, h in enumerate(nontriv)}
    mats = {h: np.asarray(module.matrix_of(h)) for h in elems}
    ident = np.eye(n, dtype=np.int64)
    acc = intlinalg.KernelAccumulator((m - 1) * n)
    for g in nontriv:
        for h in nontriv:
            gh = pg.pmul(g, h)
            block = np.zeros(((m - 1) * n, n), dtype=np.int64)
            if gh in pos:
                i = pos[gh]
                block[i * n:(i + 1) * n] += ident
            i = pos[g]
            block[i * n:(i + 1) * n] -= mats[h]
            i = pos[h]
            block[i * n:(i + 1) * n] -= ident
            acc.add_block(block)
    z1 = acc.kernel()
    cob = np.hstack([mats[h] - ident for h in nontriv])
    return quotient_mod_coboundaries(z1, list(cob))


def direct_sum(a: zmodules.GIntModule,
               b: zmodules.GIntModule) -> zmodules.GIntModule:
    """Block-diagonal sum of two modules over the same group."""
    if a.group is not b.group:
        raise ValueError("modules must share the same group object")
    mats = []
    for ga, gb in zip(a.gens, b.gens):
        m = np.zeros((a.rank + b.rank, a.rank + b.rank), dtype=np.int64)
        m[:a.rank, :a.rank] = ga
        m[a.rank:, a.rank:] = gb
        mats.append(m)
    return zmodules.GIntModule(a.group, tuple(mats), a.rank + b.rank)


def load_pairing(path) -> np.ndarray:
    with readers.InputFile(path) as f:
        lines, (rank,) = f.lines("pairing", ("rank",))
        mat, _ = readers.matrix_block(lines, 1, rank)
        if not np.array_equal(mat, mat.T):
            raise ValueError("the pairing is not symmetric")
    return mat


def det(a) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    w = [[int(x) for x in row] for row in intlinalg.as_int_array(a)]
    n = len(w)
    if any(len(row) != n for row in w):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = w[k][k]
        for i in range(k + 1, n):
            wik = w[i][k]
            for j in range(k + 1, n):
                w[i][j] = (pkk * w[i][j] - wik * w[k][j]) // prev
            w[i][k] = 0
        prev = pkk
    return sign * w[n - 1][n - 1]
