"""Permutation groups: stabiliser chains, element tables and classes.

Permutations on ``{0, ..., n-1}`` are tuples of images; composition is
left-to-right, so ``(p * q)(i) = q[p[i]]`` and points are acted on from the
right: ``i ^ (pq) = (i ^ p) ^ q``.

:class:`PermGroup` keeps a base and strong generating set built by a
deterministic Schreier-Sims procedure.  Only a Schreier generator that
becomes a new strong generator is sifted again for its word, and every
transversal element carries a word, so any element can be written in the
original generators (:meth:`PermGroup.express`) and a presentation read
off the chain (:meth:`PermGroup.presentation`).

Whole-group operations run on the element table: all elements as one
numpy array in lexicographic order.  A row is found by its key, one int64
made of its images of the base points, which determine an element (Holt,
Eick and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).
Conjugacy classes are the orbits of the generators acting on the rows by
conjugation, labelled in one vectorised pass; the exponent, nilpotency and
G/G' are counted off them.  Subgroup conjugacy and normalisers conjugate
by all rows at once, gathering only the base columns.

A build stops early when the caller knows an upper bound on the order:
:meth:`PermGroup.subgroup` passes the order of the group the generators
lie in, :meth:`ElementSet.group` the exact order of its elements.  The
product of the basic orbit lengths is a lower bound on the order, so once
it reaches the bound the base and strong generating set is complete
(Holt, Eick and O'Brien, ch. 4): every Schreier generator left to verify
would sift, and no strong generator can appear.  Each orbit is a function
of its level's strong generators, so rebuilding every level then gives
the chain of the fully verified build, field for field.

Closures (:func:`closed_set`, :func:`normal_closure`) grow an
:class:`ElementSet` by Dimino's coset closure; the derived series compares
the sizes of element sets, and a chain is built only for a group that is
kept (:meth:`ElementSet.group`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, reduce
from math import lcm
from operator import itemgetter

import numpy as np

from .intlinalg import AbelianInvariants, prime_powers

# ---------------------------------------------------------------------------
# permutations as tuples


@cache
def pident(n):
    return tuple(range(n))


def pmul(p, q):
    """Compose left-to-right: apply p, then q."""
    if len(p) < 2:  # itemgetter of one index returns a bare item
        return tuple(q[i] for i in p)
    return itemgetter(*p)(q)


def pinv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def pconj(p, g):
    """g^-1 p g (the conjugate of p by g, acting after relabelling by g)."""
    gi = pinv(g)
    return tuple(g[p[gi[i]]] for i in range(len(p)))


def pcommutator(a, b):
    return pmul(pmul(pinv(a), pinv(b)), pmul(a, b))


def cycle_type(p):
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if not seen[i]:
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            out.append(ln)
    return tuple(sorted(out, reverse=True))


def porder(p):
    return lcm(*cycle_type(p))


def is_identity(p):
    return tuple(p) == pident(len(p))


# ---------------------------------------------------------------------------
# words


def word_inverse(word):
    return tuple((i, -e) for i, e in reversed(word))


def word_free_reduce(word):
    out = []
    for i, e in word:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return tuple(out)


# ---------------------------------------------------------------------------
# element tables


def _dtype(degree):
    return np.uint8 if degree <= 255 else np.uint16


def _as_table(rows, degree):
    return np.asarray(rows, dtype=_dtype(degree)).reshape(-1, degree)


def _keys(columns, degree):
    """One key per row of ``columns``, whose entries lie in ``range(degree)``,
    equal exactly for equal rows: the row as an int64 number in base
    ``degree`` while ``degree ** width < 2^63``, else its bytes."""
    width = columns.shape[1]
    if degree ** width < 2 ** 63:
        return columns @ degree ** np.arange(width - 1, -1, -1,
                                             dtype=np.int64)
    columns = np.ascontiguousarray(columns)
    return columns.view(np.dtype((np.void, columns.itemsize * width))).ravel()


def orbit_minima(acts, n):
    """For each of 0..n-1, the least point of its orbit under the
    permutations ``acts`` (index arrays) of a finite group: every point
    takes the least label the maps reach until no label changes."""
    label, old = np.arange(n), None
    while not np.array_equal(label, old):
        old = label
        for act in acts:
            label = np.minimum(label, label[act])
        label = label[label]
    return label


class ElementTable:
    """All elements of a group as a lexicographically sorted numpy array.

    ``base``: points whose images determine every row, a base of the group
    or of one containing it.  A lookup is a binary search among the rows'
    keys (:func:`_keys` of their base images).  A key is exact only among
    members, so :meth:`index_of` checks each hit's full row and
    :meth:`conjugators` looks up by key only conjugates of members.
    """

    def __init__(self, rows, degree, base):
        t = _as_table(rows, degree)
        order = np.lexsort(t.T[::-1])
        self.table = np.ascontiguousarray(t[order])
        self.degree = degree
        self.base = np.asarray(base, dtype=np.intp)
        keys = _keys(self.table[:, self.base], degree)
        self.by_key = np.argsort(keys)
        self.sorted_keys = keys[self.by_key]
        if (self.sorted_keys[1:] == self.sorted_keys[:-1]).any():
            raise RuntimeError("base images do not determine elements")
        self._preimages = None  # [k, j]: the point row k sends to base[j]

    def __len__(self):
        return self.table.shape[0]

    def _lookup(self, images):
        """For each row of base images, the index of the table row with its
        key if there is one, else of some row."""
        pos = np.searchsorted(self.sorted_keys, _keys(images, self.degree))
        return self.by_key[np.minimum(pos, len(self) - 1)]

    def index_of(self, rows):
        """Sorted-table indices of the given rows, which must all be
        members (``ValueError`` otherwise)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=self.table.dtype))
        idx = self._lookup(rows[:, self.base])
        if (self.table[idx] != rows).any():
            raise ValueError("a row is not an element of the group")
        return idx

    def perm(self, i):
        return tuple(int(x) for x in self.table[i])

    def conjugators(self, gens, target: "ElementTable"):
        """Indices of the rows g with g^-1 h g in ``target`` for every h;
        each h must lie in this group (``ValueError`` otherwise)."""
        gens = np.asarray(gens, dtype=self.table.dtype)
        self.index_of(gens)
        # the rows of this group that target holds, checked on all columns
        idx = self._lookup(target.table[:, self.base])
        held = np.zeros(len(self), dtype=bool)
        held[idx[(self.table[idx] == target.table).all(1)]] = True
        if self._preimages is None:
            self._preimages = (self.table[:, :, None] == self.base).argmax(1)
        index = np.arange(len(self))
        for h in gens:
            # g^-1 h g sends b to g[h[g^-1[b]]], a member found by its key
            flat = index[:, None] * self.degree + h[self._preimages[index]]
            index = index[held[self._lookup(self.table.ravel()[flat])]]
            if not index.size:
                break
        return index


# ---------------------------------------------------------------------------
# stabiliser chains


@dataclass
class _Level:
    point: int
    gen_indices: list          # indices into the strong generator list
    orbit: dict                # point -> transversal perm (base -> point)
    orbit_words: dict          # point -> word in strong generator indices
    inverses: dict = field(default_factory=dict)  # point -> inverse, lazily

    def inverse(self, pt):
        """Inverse of the transversal element for ``pt`` (cached)."""
        inv = self.inverses.get(pt)
        if inv is None:
            inv = self.inverses[pt] = pinv(self.orbit[pt])
        return inv


class _DerivedSeries:
    """Derived series of anything with ``generators`` and ``order``; every
    term is an :class:`ElementSet`, so no chain is built."""

    def derived_subgroup(self) -> "ElementSet":
        # [b, a] = [a, b]^-1 is in the closure by the time it would be
        # popped, so only the pairs i < j are seeds
        gens = [g for g in self.generators if not is_identity(g)]
        return normal_closure(self, [pcommutator(a, b)
                                     for i, a in enumerate(gens)
                                     for b in gens[i + 1:]])

    def _derived_walk(self, derived=None):
        """(l, D): the series drops l times, then D = G^(l+1) = G^(l); D's
        generators, not G^(l)'s, are those of the solvable residual.
        ``derived`` is G' when the caller has it already."""
        cur, length = self, 0
        nxt = self.derived_subgroup() if derived is None else derived
        while nxt.order != cur.order:
            cur, length = nxt, length + 1
            nxt = cur.derived_subgroup()
        return length, nxt

    def solvable_residual(self) -> "ElementSet":
        return self._derived_walk()[1]

    def derived_length(self, derived=None):
        """Length of the derived series, or None if it stops above 1."""
        length, residual = self._derived_walk(derived)
        return length if residual.order == 1 else None


class PermGroup(_DerivedSeries):
    """A permutation group with a deterministic base and strong generating set.

    ``generators`` may contain duplicates or identities; they keep their
    indices for purposes of words, but only nontrivial ones enter the chain.
    ``order_bound``, an upper bound on the order of the group generated,
    ends the build once the chain reaches it; the chain is the same.
    """

    def __init__(self, generators, degree=None, *, order_bound=None):
        generators = [tuple(g) for g in generators]
        if degree is None:
            if not generators:
                raise ValueError("need a degree for the trivial group")
            degree = len(generators[0])
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        self.degree = degree
        self.generators = generators
        self.base = []
        self.sgens = []            # strong generators (permutations)
        self.sgen_words = []       # words in original generators
        self.levels = []
        self._order_bound = order_bound
        self._build()
        self._cache = {}

    # -- construction ------------------------------------------------------

    def _sgen_level(self, p):
        """Deepest level whose base prefix the permutation fixes."""
        for i, b in enumerate(self.base):
            if p[b] != b:
                return i
        return len(self.base)

    def _rebuild_orbit(self, i):
        level = self.levels[i]
        gen_indices = [j for j, s in enumerate(self.sgens)
                       if self._sgen_level(s) >= i]
        if level.orbit and gen_indices == level.gen_indices:
            return  # the orbit is a function of the level's generators
        level.gen_indices = gen_indices
        b = level.point
        n = self.degree
        level.orbit = {b: pident(n)}
        level.orbit_words = {b: ()}
        level.inverses = {}
        frontier = [b]
        while frontier:
            new = []
            for pt in frontier:
                t = level.orbit[pt]
                w = level.orbit_words[pt]
                for j in level.gen_indices:
                    s = self.sgens[j]
                    img = s[pt]
                    if img not in level.orbit:
                        level.orbit[img] = pmul(t, s)
                        level.orbit_words[img] = w + ((j, 1),)
                        new.append(img)
            frontier = new

    def _add_sgen(self, p, word):
        lvl = self._sgen_level(p)
        if lvl == len(self.base):
            moved = min(i for i in range(self.degree) if p[i] != i)
            self.base.append(moved)
            self.levels.append(_Level(moved, [], {}, {}))
        self.sgens.append(p)
        self.sgen_words.append(tuple(word))
        return self._sgen_level(p)

    def _strip_with_word(self, p, word, start):
        """Sift from ``start`` down, extending the strong-generator word.

        Returns ``(level, residue, word)`` where the word (in strong
        generator indices) evaluates to the residue.
        """
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            img = p[level.point]
            if img not in level.orbit:
                return i, p, word
            word = word + word_inverse(level.orbit_words[img])
            p = pmul(p, level.inverse(img))
        return len(self.levels), p, word

    def _build(self):
        for idx, g in enumerate(self.generators):
            if not is_identity(g):
                self._add_sgen(g, ((idx, 1),))
        if not self.base:
            return
        for i in range(len(self.levels)):
            self._rebuild_orbit(i)
        # verify levels bottom-up; a new strong generator at level l sends
        # the scan back down to l (deeper levels keep their generator sets
        # and stay verified).  Stop once the orbits reach the bound on the
        # order: shallower levels may be stale, but a new strong generator
        # lies in the group of each one's generators, so their orbits keep
        # their size.
        bound = self._order_bound
        i = len(self.levels) - 1
        while i >= 0 and (bound is None or self.order < bound):
            self._rebuild_orbit(i)
            level = self.levels[i]
            restart = None
            for pt in sorted(level.orbit):
                t = level.orbit[pt]
                for j in level.gen_indices:
                    s = self.sgens[j]
                    img = s[pt]
                    ts = pmul(t, s)
                    if ts == level.orbit[img]:
                        continue  # trivial Schreier generator
                    schreier = pmul(ts, level.inverse(img))
                    if self.sift(schreier, i + 1) is not None:
                        continue
                    # a new strong generator: sift again, with its word
                    word = level.orbit_words[pt] + ((j, 1),) + word_inverse(
                        level.orbit_words[img])
                    lvl, res, word = self._strip_with_word(
                        schreier, word, i + 1)
                    self._add_sgen(res, self._expand_sgen_word(word))
                    for k in range(i + 1, len(self.levels)):
                        self._rebuild_orbit(k)
                    restart = len(self.levels) - 1 if lvl >= len(
                        self.levels) - 1 else lvl
                    break
                if restart is not None:
                    break
            if restart is not None:
                i = restart
            else:
                i -= 1
        if i >= 0:  # stopped at the bound: rebuild the levels left stale
            for k in range(len(self.levels)):
                self._rebuild_orbit(k)
        # the inverses serve the sifts of the build; a built chain keeps
        # only its transversals, as groups are kept by the thousand
        for level in self.levels:
            level.inverses = {}

    def _expand_sgen_word(self, word):
        """Rewrite a word in strong generator indices into original ones."""
        out = ()
        for j, e in word:
            w = self.sgen_words[j]
            out = out + (w if e > 0 else word_inverse(w))
        return word_free_reduce(out)

    # -- basic queries -----------------------------------------------------

    @property
    def order(self):
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    @property
    def identity(self):
        return pident(self.degree)

    def __contains__(self, p):
        return self.sift(tuple(p)) is not None

    def sift(self, p, start=0):
        """[(i, pt), ...] for the levels i >= start at which sifting ``p``
        meets a point pt other than the base point, so that p = t_last ...
        t_first for their transversal elements t; None for non-members."""
        out = []
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            pt = p[level.point]
            if pt != level.point:
                if pt not in level.orbit:
                    return None
                p = pmul(p, level.inverse(pt))
                out.append((i, pt))
        return out if is_identity(p) else None

    def schreier_relations(self):
        """(i, pt, j, sift) for each level i, orbit point pt and strong
        generator j of the level: t_pt s_j = h t_img, where ``sift`` is
        :meth:`sift` of h = t_pt s_j t_img^-1 from level i + 1 on."""
        for i, level in enumerate(self.levels):
            for pt in sorted(level.orbit):
                for j in level.gen_indices:
                    s = self.sgens[j]
                    h = pmul(pmul(level.orbit[pt], s), level.inverse(s[pt]))
                    rest = self.sift(h, i + 1)
                    if rest is None:
                        raise RuntimeError("chain failed to sift")
                    yield i, pt, j, rest

    def express(self, p):
        """A word in the original generators evaluating to ``p``.

        Returns ``None`` for non-members.
        """
        points = self.sift(tuple(p))
        if points is None:
            return None
        return self._expand_sgen_word(tuple(
            x for i, pt in reversed(points)
            for x in self.levels[i].orbit_words[pt]))

    def subgroup(self, gens):
        """The subgroup generated by ``gens``, which must lie in this group
        (``ValueError`` otherwise), as its order bounds the build."""
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != self.degree or g not in self:
                raise ValueError(f"not an element of the group: {g}")
        return PermGroup(gens, self.degree, order_bound=self.order)

    # -- element enumeration ----------------------------------------------

    def element_table(self) -> ElementTable:
        if 'table' not in self._cache:
            rows = np.array([pident(self.degree)], dtype=_dtype(self.degree))
            for level in reversed(self.levels):
                # all products rows[i] * t: apply the accumulated deeper
                # factors first, then the transversal element
                out = np.empty((len(level.orbit), *rows.shape), rows.dtype)
                for k, pt in enumerate(sorted(level.orbit)):
                    np.take(np.asarray(level.orbit[pt], rows.dtype), rows,
                            out=out[k])
                rows = out.reshape(-1, self.degree)
            self._cache['table'] = ElementTable(rows, self.degree, self.base)
        return self._cache['table']

    # -- conjugacy of elements --------------------------------------------

    def _conjugation_maps(self, gens=None):
        """Row k: the table index of g^-1 x g for the row x at each index,
        for the k-th nontrivial g of ``gens``, elements of this group
        (default: its generators): the conjugates' keys, sorted, are the
        table's."""
        et = self.element_table()
        maps = []
        for g in self.generators if gens is None else gens:
            if is_identity(g):
                continue
            g = np.asarray(g, dtype=et.table.dtype)
            # g^-1 x g sends b to g[x[g^-1[b]]]: only base columns matter
            keys = _keys(g[et.table[:, np.argsort(g)[et.base]]], et.degree)
            pos = np.argsort(keys)
            if not np.array_equal(keys[pos], et.sorted_keys):
                raise RuntimeError("a conjugate is not in the table")
            maps.append(np.empty(len(et), dtype=np.intp))
            maps[-1][pos] = et.by_key
        return maps

    def conjugacy_classes(self):
        """List of (representative, size); canonical deterministic order.

        Classes are the orbits of the generators acting on the table rows
        by conjugation (:meth:`_conjugation_maps`), labelled by their least
        rows (:func:`orbit_minima`), so each representative is the
        lexicographically least member.  Classes are sorted by (element
        order, class size, representative).
        """
        if 'classes' not in self._cache:
            et = self.element_table()
            first, cls, sizes = np.unique(
                orbit_minima(self._conjugation_maps(), len(et)),
                return_inverse=True, return_counts=True)
            classes = [(et.perm(i), int(size))
                       for i, size in zip(first, sizes)]
            nclass = len(classes)
            order = sorted(range(nclass),
                           key=lambda i: (porder(classes[i][0]),
                                          classes[i][1], classes[i][0]))
            self._cache['classes'] = [classes[i] for i in order]
            relabel = np.empty(nclass, dtype=np.min_scalar_type(nclass))
            relabel[order] = np.arange(nclass)
            self._cache['class_index'] = relabel[cls]
        return self._cache['classes']

    def class_indices(self, rows) -> np.ndarray:
        """Indices into :meth:`conjugacy_classes` of the element rows."""
        self.conjugacy_classes()
        return self._cache['class_index'][
            self.element_table().index_of(rows)]

    def exponent(self):
        return lcm(*[porder(rep) for rep, _ in self.conjugacy_classes()])

    def is_nilpotent(self):
        """Is every Sylow subgroup normal?  That is, for each p^a exactly
        dividing |G|, do exactly p^a elements have order dividing p^a?"""
        orders = [(porder(r), size) for r, size in self.conjugacy_classes()]
        return all(sum(size for k, size in orders if p ** a % k == 0) == p ** a
                   for p, a in prime_powers(self.order))

    def normalizer_rows(self, sub: "PermGroup") -> np.ndarray:
        """The element rows of N_G(H), by a vectorised scan of the whole
        element table."""
        et = self.element_table()
        return et.table[et.conjugators(_generating_rows(sub),
                                       sub.element_table())]

    def normalizer(self, sub: "PermGroup") -> "PermGroup":
        """N_G(H) as a group."""
        return group_from_elements(self.normalizer_rows(sub), self.degree)

    # -- subgroup-level operations: ``b`` is a group or the ElementTable of
    # one, so a subgroup can be tested before its chain is built

    def conjugating_element(self, a: "PermGroup", b):
        """Some g in G with a^g = b (as subgroups), or None."""
        target = _table_of(b)
        if a.order != len(target):
            return None
        return self._conjugate_into_scan(a, target)

    def is_conjugate_subgroup(self, a, b):
        return self.conjugating_element(a, b) is not None

    def conjugate_into(self, a: "PermGroup", b):
        """Some g in G with a^g a subgroup of b, or None."""
        target = _table_of(b)
        if len(target) % a.order:
            return None
        return self._conjugate_into_scan(a, target)

    def _conjugate_into_scan(self, a, target: ElementTable):
        et = self.element_table()
        index = et.conjugators(_generating_rows(a), target)
        return et.perm(int(index[0])) if index.size else None

    # -- presentations -----------------------------------------------------

    def presentation(self) -> "Presentation":
        """A finite presentation on the strong generators.

        Relators come from the stabiliser chain: for every level, orbit
        point and level generator, the Schreier element ``t s t'^-1`` is
        rewritten through the deeper levels (:meth:`schreier_relations`);
        the resulting relation words evaluate to the identity and present
        the group.
        """
        relators = {}  # an ordered set
        for i, pt, j, rest in self.schreier_relations():
            words = self.levels[i].orbit_words
            word = words[pt] + ((j, 1),) + word_inverse(
                words[self.sgens[j][pt]])
            for k, q in rest:
                word += word_inverse(self.levels[k].orbit_words[q])
            relators[word_free_reduce(word)] = None
        relators.pop((), None)
        return Presentation(len(self.sgens), tuple(self.sgen_words),
                            tuple(relators))


@dataclass(frozen=True)
class Presentation:
    """Presentation on a group's strong generators.

    ``gen_words`` express each presentation generator as a word in the
    original generators of the group the presentation came from;
    ``relators`` are words in the presentation generators (indices into
    ``gen_words``).
    """

    ngens: int
    gen_words: tuple
    relators: tuple


# ---------------------------------------------------------------------------
# helpers on groups


def _generating_rows(group: PermGroup):
    gens = [g for g in group.generators if not is_identity(g)]
    return gens if gens else [group.identity]


def _table_of(group) -> ElementTable:
    return group if isinstance(group, ElementTable) else group.element_table()


class ElementSet(_DerivedSeries):
    """Elements of the group generated so far, as row bytes.

    Dimino's algorithm: a new generator adds right cosets Hx of the old
    group H until the union is closed under every generator.  Growing
    past ``limit`` elements raises ``RuntimeError``.
    """

    def __init__(self, degree, limit=None):
        self.degree = degree
        self.dtype = _dtype(degree)
        identity = np.arange(degree, dtype=self.dtype)
        self.blocks = [identity[None, :]]
        self.keys = {identity.tobytes()}
        self.generators = []
        self.limit = limit

    @property
    def order(self):
        return len(self.keys)

    def __contains__(self, p):
        return np.asarray(p, dtype=self.dtype).tobytes() in self.keys

    def rows(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def group(self) -> PermGroup:
        """The group of these elements, with its Schreier-Sims chain."""
        return PermGroup(self.generators, self.degree, order_bound=self.order)

    def add_generator(self, p):
        self.generators.append(tuple(p))
        gens = [np.asarray(g, dtype=self.dtype) for g in self.generators]
        old = self.rows()
        reps = []
        self._add_coset(old, gens[-1], reps)
        for r in reps:  # grows while it is walked
            for g in gens:
                x = g[r]
                if x not in self:
                    self._add_coset(old, x, reps)

    def _add_coset(self, old, x, reps):
        block = x[old]
        raw = block.tobytes()
        width = block.itemsize * block.shape[1]
        self.keys.update(raw[k:k + width] for k in range(0, len(raw), width))
        self.blocks.append(block)
        reps.append(x)
        if self.limit is not None and self.order > self.limit:
            raise RuntimeError("rows were not closed")


def closed_set(rows, degree) -> ElementSet:
    """The element set constituted by the given rows.

    A row becomes a generator iff it is not in the group generated by the
    earlier ones, so the resulting generating set is small; the rows must
    be closed under the group operations (they come from masked
    element-table scans).
    """
    rows = _as_table(rows, degree)
    elements = ElementSet(degree, limit=len(rows))
    for r in rows:
        if elements.order == len(rows):
            break
        if r not in elements:
            elements.add_generator(r.tolist())
    if elements.order != len(rows):
        raise RuntimeError("rows were not closed")
    return elements


def group_from_elements(rows, degree) -> PermGroup:
    """The group of :func:`closed_set` of the rows, with its chain."""
    return closed_set(rows, degree).group()


def normal_closure(ambient, seeds) -> ElementSet:
    """Smallest subgroup of ``ambient`` (a group or an element set)
    containing ``seeds`` and normal in it."""
    elements = ElementSet(ambient.degree)
    queue = deque(tuple(s) for s in seeds if not is_identity(s))
    conjugators = [(g, pinv(g)) for g in ambient.generators
                   if not is_identity(g)]
    while queue:
        x = queue.popleft()
        if x not in elements:
            elements.add_generator(x)
            for g, gi in conjugators:
                queue.append(pconj(x, g))
                queue.append(pconj(x, gi))
    return elements


def orbits(gens, degree):
    """Orbits of the group generated by ``gens`` on points."""
    label = orbit_minima([np.asarray(g) for g in gens], degree)
    return [np.flatnonzero(label == x).tolist() for x in np.unique(label)]


def abelian_invariants(group: PermGroup, derived=None) -> AbelianInvariants:
    """Invariant factors of G/G', by counting over the conjugacy classes;
    ``derived`` is G' when the caller has it already.

    For p^a exactly dividing |G/G'|, the x with x^(p^k) in G' number
    |G'| p^(s_k), where s_k sums min(e, k) over the cyclic factors Z/p^e
    of G/G'.  So r_k = s_k - s_(k-1) factors have order p^k or more, and
    the i-th largest has order p^e with e the number of k with r_k > i.
    """
    derived = group.derived_subgroup() if derived is None else derived
    classes = group.conjugacy_classes()
    chains = []
    for p, a in prime_powers(group.order // derived.order):
        powers, ranks, s = [rep for rep, _ in classes], [], 0
        while s < a:
            powers = [reduce(pmul, (x,) * p) for x in powers]
            killed = sum(size for x, (_, size) in zip(powers, classes)
                         if x in derived)
            s_k = dict(prime_powers(killed // derived.order)).get(p, 0)
            ranks.append(s_k - s)
            s = s_k
        chains.append([p ** sum(r > i for r in ranks)
                       for i in range(ranks[0])])
    return AbelianInvariants.from_elementary_divisors(chains)
