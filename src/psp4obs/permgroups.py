"""Permutation groups: stabiliser chains, element tables and classes.

Permutations on ``{0, ..., n-1}`` are tuples of images; composition is
left-to-right, so ``(p * q)(i) = q[p[i]]`` and points are acted on from the
right: ``i ^ (pq) = (i ^ p) ^ q``.

:class:`PermGroup` keeps a base and strong generating set built by a
deterministic Schreier-Sims procedure on first use, so a group that is
handed its element table and read only through it builds none.  One strip
loop sifts every element: it returns the path of transversal points it
met, and every transversal element carries a word, so a new strong
generator's word, any element's word in the original generators
(:meth:`PermGroup.express`) and a presentation
(:meth:`PermGroup.presentation`) are read off paths.

Whole-group operations run on the element table: all elements as one
numpy array in lexicographic order.  A row is found by its key, one int64
made of its images of the base points, which determine an element (Holt,
Eick and O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).
Conjugacy classes are the orbits of the generators acting on the rows by
conjugation, labelled in one vectorised pass; the exponent, nilpotency and
G/G' are counted off them.  Subgroup conjugacy and normaliser scans
gather only the base columns and start from the centraliser of one
generator's class representative: each group builds one
:class:`ConjugacyAnchor` for them, which also labels the rows by the
cosets of a subgroup.

Closures (:func:`closed_set`, :func:`normal_closure`) grow an
:class:`ElementSet` by Dimino's coset closure; the derived series compares
the sizes of element sets, and a group that is kept
(:meth:`ElementSet.group`) builds its chain only where one is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, reduce
from math import lcm, prod
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
    """One key per row (along the last axis) of ``columns``, whose entries
    lie in ``range(degree)``, equal exactly for equal rows: the row as an
    int64 number in base ``degree`` while ``degree ** width < 2^63``, else
    its bytes."""
    width = columns.shape[-1]
    if degree ** width < 2 ** 63:
        return columns @ degree ** np.arange(width - 1, -1, -1,
                                             dtype=np.int64)
    columns = np.ascontiguousarray(columns)
    return columns.view(np.dtype((np.void, columns.itemsize * width)))[
        ..., 0]


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
    members, so :meth:`index_of` checks each hit's full row, and
    :meth:`conjugates` and :meth:`times` look up by key only conjugates and
    products of members.
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
        """For each row (along the last axis) of base images, the index of
        the table row with its key if there is one, else of some row."""
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

    def held(self, target: "ElementTable"):
        """A mask of the rows of this group that ``target`` holds, checked
        on all columns."""
        idx = self._lookup(target.table[:, self.base])
        held = np.zeros(len(self), dtype=bool)
        held[idx[(self.table[idx] == target.table).all(1)]] = True
        return held

    def conjugates(self, index, gens):
        """Indices of the conjugates g^-1 h g, row j for the j-th member h
        of ``gens`` (an array of rows) and column i for the row g at
        ``index[i]``."""
        if self._preimages is None:
            self._preimages = (self.table[:, :, None] == self.base).argmax(1)
        gens = np.asarray(gens, dtype=self.table.dtype).reshape(
            -1, self.degree)
        # g^-1 h g sends b to g[h[g^-1[b]]], a member found by its key
        flat = index[:, None] * self.degree + gens[:, self._preimages[index]]
        return self._lookup(self.table.ravel()[flat])

    def sieve(self, index, gens, held):
        """The rows g among ``index`` with g^-1 h g held for every h of
        ``gens``, an array of members."""
        for h in gens:
            index = index[held[self.conjugates(index, h)[0]]]
            if not index.size:
                break
        return index

    def times(self, index, g):
        """Indices of the products x g of the rows x at ``index`` and the
        rows g at ``g``, two index arrays that broadcast together: x g
        sends b to g[x[b]]."""
        index = np.asarray(index)[..., None]
        return self._lookup(self.table[np.asarray(g)[..., None],
                                       self.table[index, self.base]])


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

    _derived = None  # G', kept by the first derived_subgroup()

    def derived_subgroup(self) -> "ElementSet":
        """G', closed on the first call and kept."""
        if self._derived is None:
            # [b, a] = [a, b]^-1 is in the closure by the time it would be
            # popped, so only the pairs i < j are seeds
            gens = [g for g in self.generators if not is_identity(g)]
            self._derived = normal_closure(self, [pcommutator(a, b)
                                                  for i, a in enumerate(gens)
                                                  for b in gens[i + 1:]])
        return self._derived

    def _derived_walk(self):
        """(l, D): the series drops l times, then D = G^(l+1) = G^(l); D's
        generators, not G^(l)'s, are those of the solvable residual."""
        cur, length = self, 0
        nxt = self.derived_subgroup()
        while nxt.order != cur.order:
            cur, length = nxt, length + 1
            nxt = cur.derived_subgroup()
        return length, nxt

    def solvable_residual(self) -> "ElementSet":
        return self._derived_walk()[1]

    def derived_length(self):
        """Length of the derived series, or None if it stops above 1."""
        length, residual = self._derived_walk()
        return length if residual.order == 1 else None


class _ChainField:
    """A field of the chain: the first read builds the chain, which stores
    all four fields in the group and so shadows these descriptors."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, group, owner=None):
        if group is None:
            return self
        group.base, group.sgens, group.sgen_words, group.levels = (
            [], [], [], [])
        group._build()
        return vars(group)[self.name]


class PermGroup(_DerivedSeries):
    """A permutation group with a deterministic base and strong generating set.

    ``generators`` may contain duplicates or identities; they keep their
    indices for purposes of words, but only nontrivial ones enter the chain.
    The constructor only checks the generators: the chain (``base``,
    ``sgens``, the strong generators, ``sgen_words``, their words in the
    generators, and ``levels``) is built on the first use of one of them.
    A group that holds its element table takes its order from the table.
    """

    def __init__(self, generators, degree=None):
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
        self._cache = {}

    # -- construction ------------------------------------------------------

    # the chain, built on the first read of one of its fields
    base, sgens, sgen_words, levels = (_ChainField() for _ in range(4))

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
        if self._sgen_level(p) == len(self.base):
            moved = min(i for i in range(self.degree) if p[i] != i)
            self.base.append(moved)
            self.levels.append(_Level(moved, [], {}, {}))
        self.sgens.append(p)
        self.sgen_words.append(tuple(word))

    def _strip(self, p, start=0):
        """Sift ``p`` from level ``start`` down: ``(level, residue, path)``.

        ``level`` is the first level whose orbit misses the image of its
        base point (the number of levels if none); ``path`` lists the
        ``(i, pt)`` at which the image pt is not the base point, so that
        p = residue t_last ... t_first for their transversal elements t.
        """
        levels = self.levels
        path = []
        for i in range(start, len(levels)):
            level = levels[i]
            pt = p[level.point]
            if pt != level.point:
                if pt not in level.orbit:
                    return i, p, path
                p = pmul(p, level.inverse(pt))
                path.append((i, pt))
        return len(levels), p, path

    def _path_word(self, path):
        """The word in strong generator indices of t_first^-1 ...
        t_last^-1, which a strip along ``path`` multiplies by."""
        return tuple(x for i, pt in path
                     for x in word_inverse(self.levels[i].orbit_words[pt]))

    def _schreier_word(self, i, pt, j, path):
        """The word of t_pt s_j t_img^-1 at level i, stripped along
        ``path``: the word of the strip's residue."""
        words = self.levels[i].orbit_words
        return (words[pt] + ((j, 1),) + word_inverse(words[self.sgens[j][pt]])
                + self._path_word(path))

    def _schreier_strips(self, i):
        """(pt, j, strip) for each orbit point pt of level i and strong
        generator j of the level: :meth:`_strip` of the Schreier element
        t_pt s_j t_img^-1 from level i + 1 on."""
        level = self.levels[i]
        trivial = (len(self.levels), self.identity, ())  # the strip of 1
        for pt in sorted(level.orbit):
            t = level.orbit[pt]
            for j in level.gen_indices:
                s = self.sgens[j]
                ts = pmul(t, s)
                if ts == level.orbit[s[pt]]:
                    yield pt, j, trivial
                else:
                    yield pt, j, self._strip(pmul(ts, level.inverse(s[pt])),
                                             i + 1)

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
        # and stay verified)
        i = len(self.levels) - 1
        while i >= 0:
            self._rebuild_orbit(i)
            restart = i - 1
            for pt, j, (lvl, res, path) in self._schreier_strips(i):
                if not is_identity(res):
                    self._add_sgen(res, self._expand_sgen_word(
                        self._schreier_word(i, pt, j, path)))
                    for k in range(i + 1, len(self.levels)):
                        self._rebuild_orbit(k)
                    restart = min(lvl, len(self.levels) - 1)
                    break
            i = restart
        # the inverses serve the strips of the build, which meet every
        # orbit point; a built chain keeps only its transversals, and a
        # later sift remakes just the inverses it meets
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
        if 'table' in self._cache:
            return len(self._cache['table'])
        return prod(len(level.orbit) for level in self.levels)

    @property
    def identity(self):
        return pident(self.degree)

    def __contains__(self, p):
        return self.sift(tuple(p)) is not None

    def sift(self, p):
        """The path of :meth:`_strip` when ``p`` strips to the identity, so
        that p = t_last ... t_first; None for non-members."""
        _, residue, path = self._strip(p)
        return path if is_identity(residue) else None

    def schreier_relations(self):
        """(i, pt, j, path) for each level i, orbit point pt and strong
        generator j of the level: t_pt s_j = h t_img, where ``path`` is
        the path of :meth:`_strip` of h = t_pt s_j t_img^-1 from level
        i + 1 on."""
        for i in range(len(self.levels)):
            for pt, j, (_, residue, path) in self._schreier_strips(i):
                if not is_identity(residue):
                    raise RuntimeError("chain failed to sift")
                yield i, pt, j, path

    def express(self, p):
        """A word in the original generators evaluating to ``p``.

        Returns ``None`` for non-members.
        """
        path = self.sift(tuple(p))
        if path is None:
            return None
        return self._expand_sgen_word(word_inverse(self._path_word(path)))

    def subgroup(self, gens):
        """The subgroup generated by ``gens``, which must lie in this group
        (``ValueError`` otherwise)."""
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != self.degree or g not in self:
                raise ValueError(f"not an element of the group: {g}")
        return PermGroup(gens, self.degree)

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

    def _conjugation_maps(self):
        """Row k: the table index of g^-1 x g for the row x at each index,
        for the k-th nontrivial generator g: the conjugates' keys, sorted,
        are the table's."""
        et = self.element_table()
        maps = []
        for g in self.generators:
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

    def normalizer_index(self, sub: "PermGroup") -> np.ndarray:
        """The sorted element-table indices of N_G(H), by the anchored
        scan (:meth:`ConjugacyAnchor.conjugators`)."""
        return self._conjugators(sub, sub)

    def normalizer_rows(self, sub: "PermGroup") -> np.ndarray:
        """The element rows of N_G(H)."""
        return self.element_table().table[self.normalizer_index(sub)]

    def normalizer(self, sub: "PermGroup") -> "PermGroup":
        """N_G(H) as a group."""
        return group_from_elements(self.normalizer_rows(sub), self.degree)

    def conjugacy_anchor(self) -> "ConjugacyAnchor":
        """The :class:`ConjugacyAnchor` of this group, built once."""
        if 'anchor' not in self._cache:
            self._cache['anchor'] = ConjugacyAnchor(self)
        return self._cache['anchor']

    # -- subgroup-level operations: ``b`` is a group or the sorted indices
    # of its rows in this group's table; |b| is b.order or len(b)

    def conjugating_element(self, a: "PermGroup", b):
        """Some g in G with a^g = b (as subgroups), or None."""
        if a.order != (b.order if isinstance(b, PermGroup) else len(b)):
            return None
        return self._conjugate_into_scan(a, b)

    def is_conjugate_subgroup(self, a, b):
        return self.conjugating_element(a, b) is not None

    def conjugate_into(self, a: "PermGroup", b):
        """Some g in G with a^g a subgroup of b, or None."""
        if (b.order if isinstance(b, PermGroup) else len(b)) % a.order:
            return None
        return self._conjugate_into_scan(a, b)

    def _conjugators(self, a, b) -> np.ndarray:
        """The sorted indices of the rows g with a^g in b."""
        if isinstance(b, PermGroup):
            b = np.flatnonzero(self.element_table().held(b.element_table()))
        return self.conjugacy_anchor().conjugators(_generating_rows(a), b)

    def _conjugate_into_scan(self, a, b):
        index = self._conjugators(a, b)
        if not index.size:
            return None
        return self.element_table().perm(int(index[0]))

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
        for i, pt, j, path in self.schreier_relations():
            relators[word_free_reduce(
                self._schreier_word(i, pt, j, path))] = None
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
# conjugacy scans anchored on centralisers


class ConjugacyAnchor:
    """Conjugacy scans of one group that start from centralisers (Holt,
    Eick and O'Brien, ch. 4).

    ``conjugator[x]`` is the row of some t_x with r^(t_x) = x, for r the
    representative of the class of row x: a breadth-first search from the
    representatives over the generators' conjugation maps, with x^s
    reached by t_x s.  ``centralizers`` holds the rows of C_G(r) for each
    class, in class order.  Every g with h^g = y lies in t_h^-1 C_G(r)
    t_y, so a scan for the g that send every generator into a target
    starts from |C_G(r)| rows per member y of the target in the class of
    one generator h, and sieves them by the others.  The same
    right-multiplication maps label every row by its coset of a subgroup
    (:meth:`coset_labels`).
    """

    def __init__(self, group: PermGroup):
        et = self.table = group.element_table()
        classes = group.conjugacy_classes()
        self.class_of = group._cache['class_index']
        gens = [g for g in group.generators if not is_identity(g)]
        # right[k][i]: the row of x s for the row x at i and the k-th s
        self.right = [et.times(np.arange(len(et)), et.index_of(g))
                      for g in gens]
        conjugator = np.full(len(et), -1, dtype=np.intp)
        frontier = et.index_of([rep for rep, _ in classes])
        conjugator[frontier] = 0  # the identity is the least row
        maps = group._conjugation_maps()
        while frontier.size:
            reached = []
            for conj, right in zip(maps, self.right):
                x = conj[frontier]
                new = conjugator[x] < 0
                conjugator[x[new]] = right[conjugator[frontier[new]]]
                reached.append(x[new])
            frontier = np.concatenate([frontier[:0], *reached])
        self.conjugator = conjugator
        # g centralises r when r g and g r agree on the base
        columns = et.table[:, et.base]
        self.centralizers = [
            et.table[(et.table[:, np.asarray(rep)[et.base]]
                      == np.asarray(rep)[columns]).all(1)]
            for rep, _ in classes]
        self.centralizer_orders = np.array([len(c)
                                            for c in self.centralizers])

    def conjugators(self, gens, members):
        """The sorted indices of the rows g with g^-1 h g among the sorted
        row indices ``members`` for every h of ``gens``, rows of the group
        (``ValueError`` otherwise): sieved from the rows that send the
        generator h with the fewest such rows, |C_G(r)| |members n
        class(h)|, into ``members``."""
        et = self.table
        gens = np.asarray(gens, dtype=et.table.dtype)
        index = et.index_of(gens)
        cls = self.class_of[index]
        held = np.zeros(len(et), dtype=bool)
        held[members] = True
        counts = np.bincount(self.class_of[members],
                             minlength=len(self.centralizers))
        j = int(np.argmin(counts[cls] * self.centralizer_orders[cls]))
        ys = members[self.class_of[members] == cls[j]]
        # g = t_h^-1 c t_y sends b to t_y[c[t_h^-1[b]]]
        pre = np.argsort(et.table[self.conjugator[index[j]]])[et.base]
        cent = self.centralizers[cls[j]]
        images = et.table[self.conjugator[ys]][:, cent[:, pre]]
        index = et._lookup(images.reshape(len(ys) * len(cent), len(et.base)))
        return np.sort(et.sieve(index, np.delete(gens, j, axis=0), held))

    def coset_labels(self, sub):
        """For every row g, the least row of the coset S g, where ``sub``
        holds the sorted row indices of a subgroup S: a breadth-first
        search over the cosets by right multiplication."""
        label = np.full(len(self.table), -1, dtype=np.intp)
        label[sub] = sub[0]
        frontier = np.asarray(sub)[None, :]
        while frontier.size:
            reached = []
            for right in self.right:
                cosets = right[frontier]
                cosets = cosets[label[cosets[:, 0]] < 0]
                least, first = np.unique(cosets.min(1), return_index=True)
                label[cosets[first]] = least[:, None]
                reached.append(cosets[first])
            frontier = np.concatenate([frontier[:0], *reached])
        return label


# ---------------------------------------------------------------------------
# helpers on groups


def _generating_rows(group: PermGroup):
    """The nontrivial generators, or the identity for the trivial group."""
    gens = [g for g in group.generators if not is_identity(g)]
    return gens if gens else [group.identity]


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
        """The group of these elements' generators; its chain is built on
        first use."""
        return PermGroup(self.generators, self.degree)

    def add_generator(self, p):
        self.generators.append(tuple(p))
        self._derived = None
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
    """The group of the generators of :func:`closed_set` of the rows."""
    return closed_set(rows, degree).group()


def normal_closure(ambient, seeds) -> ElementSet:
    """Smallest subgroup of ``ambient`` (a group or an element set)
    containing ``seeds`` and normal in it."""
    elements = ElementSet(ambient.degree)
    queue = deque(tuple(s) for s in seeds if not is_identity(s))
    gens = [(g, pinv(g)) for g in ambient.generators if not is_identity(g)]
    while queue:
        x = queue.popleft()
        if x not in elements:
            elements.add_generator(x)
            for g, gi in gens:
                queue.append(pconj(x, g))
                queue.append(pconj(x, gi))
    return elements


def orbits(gens, degree):
    """Orbits of the group generated by ``gens`` on points."""
    label = orbit_minima([np.asarray(g) for g in gens], degree)
    return [np.flatnonzero(label == x).tolist()
            for x in np.flatnonzero(label == np.arange(degree))]


def abelian_invariants(group: PermGroup) -> AbelianInvariants:
    """Invariant factors of G/G', by counting over the conjugacy classes.

    For p^a exactly dividing |G/G'|, the x with x^(p^k) in G' number
    |G'| p^(s_k), where s_k sums min(e, k) over the cyclic factors Z/p^e
    of G/G'.  So r_k = s_k - s_(k-1) factors have order p^k or more, and
    the i-th largest has order p^e with e the number of k with r_k > i.
    """
    derived = group.derived_subgroup()
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
