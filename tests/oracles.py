"""Reference implementations that only the tests use.

``coset_action`` and ``random_element`` serve the tests that need them;
the rest are the former production paths, kept as oracles for the faster
ones:

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
* ``scan_containers`` builds the full containment order with a
  conjugacy scan for every pair of classes, where
  ``subgroups._maximal`` scans each class only against the maximal
  classes found before it, after a class-count prescreen;
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
  matrices (Burnside's theorem);
* ``brute_subgroups``, ``brute_perm_characters`` and ``snf_order`` find a
  Burnside-cokernel order from every subgroup of a small group and
  sympy's Smith normal form, where :mod:`psp4obs.burnside` uses the
  lattice's data and :mod:`psp4obs.intlinalg`;
* ``relator_matrix`` and ``presentation_abelian_invariants`` read G/G'
  off the Smith form of the abelianised relators of the chain's
  presentation, where :func:`psp4obs.permgroups.abelian_invariants`
  counts the elements whose p^k-th powers lie in G';
* ``h1_bruteforce`` solves the bar-resolution cocycle equations, where
  :func:`psp4obs.cohomology.h1` reads H^1 off the generator matrices;
* ``load_pairing`` reads the pairing file that ``scripts/build_module.py``
  writes;
* ``det`` is a fraction-free (Bareiss) determinant, which the tests use
  to check that transforms are unimodular.
"""

from collections import Counter, deque
from math import prod

import numpy as np

from psp4obs import intlinalg, sp4f3, zmodules
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


# -- absolute irreducibility on F3^4, the long way round ------------------


def invariant_line_exists(mats):
    for v in sp4f3.POINTS:
        if all(sp4f3.normalize_point(sp4f3.vec_mul3(v, m)) == v
               for m in mats):
            return True
    return False


def invariant_plane_exists(mats):
    for plane in sp4f3.PLANES:
        base = [sp4f3.POINTS[plane[0]], sp4f3.POINTS[plane[1]]]
        if all(sp4f3.POINT_INDEX[sp4f3.normalize_point(
                   sp4f3.vec_mul3(v, m))] in plane
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
    if invariant_line_exists(mats) or invariant_plane_exists(mats):
        return False
    # the hyperplane {x : x c = 0} is invariant under M exactly when the
    # line of c^T is invariant under M^T
    if invariant_line_exists([sp4f3.mat_transpose(m) for m in mats]):
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


def load_pairing(path) -> np.ndarray:
    lines, fields = zmodules._read_lines(path, "pairing", ("rank",))
    mat, _ = zmodules._read_matrix(path, lines, 1, fields["rank"])
    if not np.array_equal(mat, mat.T):
        raise ValueError("pairing is not symmetric")
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
